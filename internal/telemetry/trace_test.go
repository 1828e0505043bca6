package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNoTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatalf("expected nil span without a trace, got %+v", sp)
	}
	if ctx2 != ctx {
		t.Fatal("untraced StartSpan must return the context unchanged")
	}
	// Every method must be safe on the nil span.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Node() != nil {
		t.Fatal("nil span Node must be nil")
	}
	// And on a nil context.
	if _, sp := StartSpan(nil, "x"); sp != nil { //nolint:staticcheck // deliberate nil ctx
		t.Fatal("nil ctx must yield nil span")
	}
}

// TestDisabledTracingAllocatesNothing pins the cost of the hooks that
// are compiled into every query path: on a context carrying no trace,
// and on a trace whose span budget is spent, StartSpan + End hand back
// the caller's context and a nil span without allocating.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	spent, tr := WithTrace(context.Background(), "req")
	defer tr.Finish()
	for i := 1; i < DefaultSpanBudget; i++ { // the root is the first span
		StartSpan(spent, "fill")
	}
	for name, ctx := range map[string]context.Context{
		"no trace":     context.Background(),
		"budget spent": spent,
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			got, sp := StartSpan(ctx, "hook")
			sp.End()
			if got != ctx || sp != nil {
				t.Fatalf("%s: StartSpan returned a new context or a live span", name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: StartSpan + End allocates %v times per call, want 0", name, allocs)
		}
	}
}

// TestSamplingDecisionAllocatesNothing pins what every request pays
// for always-on head sampling: one allocation-free draw, which at 1%
// neither never fires nor always does.
func TestSamplingDecisionAllocatesNothing(t *testing.T) {
	const draws = 1_000_000
	sampled := 0
	for i := 0; i < draws; i++ {
		if ShouldSample(0.01) {
			sampled++
		}
	}
	if sampled == 0 || sampled == draws {
		t.Errorf("ShouldSample(0.01) hit %d of %d draws", sampled, draws)
	}
	if allocs := testing.AllocsPerRun(1000, func() { ShouldSample(0.01) }); allocs != 0 {
		t.Errorf("ShouldSample allocates %v times per call, want 0", allocs)
	}
}

func TestTraceTree(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "request")
	ctx1, a := StartSpan(ctx, "a")
	_, a1 := StartSpan(ctx1, "a1")
	a1.SetAttr("sql", "SELECT 1")
	time.Sleep(2 * time.Millisecond)
	a1.End()
	a.End()
	_, b := StartSpan(ctx, "b")
	b.End()

	node := tr.Finish()
	if node.Name != "request" {
		t.Fatalf("root = %q", node.Name)
	}
	if len(node.Children) != 2 || node.Children[0].Name != "a" || node.Children[1].Name != "b" {
		t.Fatalf("children = %+v", node.Children)
	}
	a1n := node.Find("a1")
	if a1n == nil || a1n.Attrs["sql"] != "SELECT 1" {
		t.Fatalf("a1 node = %+v", a1n)
	}
	if a1n.DurMS <= 0 {
		t.Fatalf("a1 duration = %v", a1n.DurMS)
	}
	if an := node.Find("a"); an.DurMS < a1n.DurMS {
		t.Fatalf("parent a (%.3fms) shorter than child a1 (%.3fms)", an.DurMS, a1n.DurMS)
	}
	if node.Find("missing") != nil {
		t.Fatal("Find on a missing name must return nil")
	}
	out := node.Render()
	for _, want := range []string{"request", "a1", "sql=SELECT 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output lacks %q:\n%s", want, out)
		}
	}
}

func TestConcurrentChildren(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(ctx, "child")
			sp.SetAttr("k", "v")
			sp.End()
		}()
	}
	wg.Wait()
	node := tr.Finish()
	if len(node.Children) != 32 {
		t.Fatalf("children = %d, want 32", len(node.Children))
	}
}

func TestOpenAndFinishClosesSpans(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "root")
	_, sp := StartSpan(ctx, "leak")
	if open := tr.Open(); len(open) != 1 || open[0] != "leak" {
		t.Fatalf("Open = %v", open)
	}
	node := tr.Finish()
	if open := tr.Open(); len(open) != 0 {
		t.Fatalf("Open after Finish = %v", open)
	}
	if n := node.Find("leak"); n == nil || n.DurMS < 0 {
		t.Fatalf("leaked span node = %+v", n)
	}
	sp.End() // idempotent after force-close
}
