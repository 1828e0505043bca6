package shardbe

import (
	"context"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/resilience"
	"seedb/internal/telemetry"
)

// execSpans collects every shard.exec node in the tree, in render order.
func execSpans(n *telemetry.SpanNode) []*telemetry.SpanNode {
	var out []*telemetry.SpanNode
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		if n.Name == "shard.exec" {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TestOpenCircuitSkipSpan pins the degraded-path span contract: a child
// whose breaker is open is never executed, but the trace still shows a
// closed shard.exec span marked status=skipped/circuit=open so the tree
// accounts for every planned partial.
func TestOpenCircuitSkipSpan(t *testing.T) {
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{
		Breakers: &resilience.BreakerOptions{FailureThreshold: 1},
	})
	fault.SetDown(backend.ErrUnavailable)
	ctx := backend.WithAllowPartial(context.Background())
	const sql = "SELECT region, COUNT(*) FROM sales GROUP BY region"

	// First exec: child 0 fails, its span is marked error, breaker trips.
	tctx, tr := telemetry.WithTrace(ctx, "trip")
	if _, _, err := r.Exec(tctx, sql, backend.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if open := tr.Open(); len(open) != 0 {
		t.Fatalf("open spans after failed fan-out: %v", open)
	}
	node := tr.Finish()
	found := false
	for _, sp := range execSpans(node) {
		if sp.Attrs["shard"] == "0" {
			found = true
			if sp.Attrs["status"] != "error" {
				t.Errorf("failed shard span status = %q, want error", sp.Attrs["status"])
			}
		}
	}
	if !found {
		t.Fatalf("no shard-0 span in tripping exec:\n%s", node.Render())
	}
	if r.BreakerStats()[0].State != resilience.Open {
		t.Fatal("breaker did not open")
	}

	// Second exec: open circuit skips the child without touching it, yet
	// the trace still carries a closed, status-marked span for it.
	before := fault.Execs()
	tctx, tr = telemetry.WithTrace(ctx, "skip")
	_, stats, err := r.Exec(tctx, sql, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsDegraded != 1 {
		t.Fatalf("ShardsDegraded = %d, want 1", stats.ShardsDegraded)
	}
	if got := fault.Execs(); got != before {
		t.Fatalf("open circuit reached the child: %d execs, want %d", got, before)
	}
	if open := tr.Open(); len(open) != 0 {
		t.Fatalf("open spans after skipped fan-out: %v", open)
	}
	node = tr.Finish()
	var skipped *telemetry.SpanNode
	for _, sp := range execSpans(node) {
		if sp.Attrs["shard"] == "0" {
			skipped = sp
		}
	}
	if skipped == nil {
		t.Fatalf("no shard-0 skip span:\n%s", node.Render())
	}
	if skipped.Attrs["status"] != "skipped" || skipped.Attrs["circuit"] != "open" {
		t.Errorf("skip span attrs = %v, want status=skipped circuit=open", skipped.Attrs)
	}
	if len(skipped.Children) != 0 {
		t.Errorf("skip span has %d children, want 0 (child never executed)", len(skipped.Children))
	}
}

// TestDegradedFanoutSpanLifecycle runs an allow-partial fan-out with a
// hard-down child (no breakers, so the failure is observed each time)
// and checks the span ledger balances: one error-marked span for the
// down child, counter-stamped spans for the survivors, nothing left
// open, and exactly one span per planned partial.
func TestDegradedFanoutSpanLifecycle(t *testing.T) {
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{})
	fault.SetDown(backend.ErrUnavailable)

	ctx, tr := telemetry.WithTrace(backend.WithAllowPartial(context.Background()), "test")
	_, stats, err := r.Exec(ctx, "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsDegraded != 1 {
		t.Fatalf("ShardsDegraded = %d, want 1", stats.ShardsDegraded)
	}
	if open := tr.Open(); len(open) != 0 {
		t.Fatalf("open spans after degraded fan-out: %v", open)
	}
	node := tr.Finish()
	spans := execSpans(node)
	if len(spans) != 3 {
		t.Fatalf("%d shard.exec spans, want 3:\n%s", len(spans), node.Render())
	}
	for _, sp := range spans {
		if sp.Attrs["shard"] == "0" {
			if sp.Attrs["status"] != "error" {
				t.Errorf("down shard span status = %q, want error", sp.Attrs["status"])
			}
		} else if sp.Attrs["rows_scanned"] == "" {
			t.Errorf("surviving shard %s span missing rows_scanned", sp.Attrs["shard"])
		}
	}
}
