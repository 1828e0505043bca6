package telemetry

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestTraceAndSpanIDs pins the identity format: 32-hex trace IDs,
// 16-hex span IDs, and a W3C-shaped traceparent that round-trips
// through ParseTraceparent.
func TestTraceAndSpanIDs(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "req")
	if !validHexID(tr.ID(), 32) {
		t.Errorf("trace ID %q is not 32 hex chars", tr.ID())
	}
	_, sp := StartSpan(ctx, "work")
	if sp.TraceID() != tr.ID() {
		t.Errorf("span trace ID %q != trace ID %q", sp.TraceID(), tr.ID())
	}

	tp := sp.Traceparent()
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[1] != tr.ID() || !validHexID(parts[2], 16) || parts[3] != "01" {
		t.Errorf("traceparent = %q, want 00-%s-<16 hex span id>-01", tp, tr.ID())
	}
	tid, ok := ParseTraceparent(tp)
	if !ok || tid != tr.ID() {
		t.Errorf("ParseTraceparent(%q) = %q %v", tp, tid, ok)
	}
	sp.End()
	tr.Finish()

	// Two traces never share an ID.
	_, tr2 := WithTrace(context.Background(), "req")
	if tr2.ID() == tr.ID() {
		t.Error("consecutive traces share an ID")
	}
	tr2.Finish()

	// A nil span has no identity and no traceparent.
	var nilSpan *Span
	if nilSpan.TraceID() != "" || nilSpan.Traceparent() != "" {
		t.Error("nil span leaked an identity")
	}
}

// TestParseTraceparentRejects pins the malformed-header contract:
// anything that is not exactly 00-<32hex>-<16hex>-<flags> is ignored.
func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-short-abcdef0123456789-01",
		"00-0123456789abcdef0123456789abcdef-short-01",
		"99-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // unknown version
		"00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01", // non-hex
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",    // missing flags
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

// TestWithRemoteTrace pins the adoption contract: a child process
// joining a distributed trace keeps the caller's trace ID; an invalid
// inbound ID falls back to a fresh identity rather than propagating
// garbage.
func TestWithRemoteTrace(t *testing.T) {
	const tid = "0123456789abcdef0123456789abcdef"
	_, tr := WithRemoteTrace(context.Background(), "child.query", tid)
	if tr.ID() != tid {
		t.Errorf("remote trace ID = %q, want adopted %q", tr.ID(), tid)
	}
	tr.Finish()

	_, tr = WithRemoteTrace(context.Background(), "child.query", "not-hex")
	if tr.ID() == "not-hex" || !validHexID(tr.ID(), 32) {
		t.Errorf("invalid inbound ID adopted: %q", tr.ID())
	}
	tr.Finish()
}

// TestSpanBudgetDegradesToCounting: once a trace holds
// DefaultSpanBudget spans, the root included, StartSpan returns a nil
// span (the no-op fast path) instead of growing the tree, and Finish
// stamps the refusal count on the root as spans_dropped. The trace asks
// for DefaultSpanBudget+over spans in all, so over are dropped.
func TestSpanBudgetDegradesToCounting(t *testing.T) {
	const over = 8
	ctx, tr := WithTrace(context.Background(), "req")
	for i := 0; i < DefaultSpanBudget-1+over; i++ {
		_, sp := StartSpan(ctx, "child")
		if i < DefaultSpanBudget-1 {
			if sp == nil {
				t.Fatalf("span %d under budget was dropped", i)
			}
		} else if sp != nil {
			t.Fatalf("span %d over budget materialized", i)
		}
		sp.End()
	}
	node := tr.Finish()
	if len(node.Children) != DefaultSpanBudget-1 {
		t.Errorf("%d children in tree, want %d", len(node.Children), DefaultSpanBudget-1)
	}
	if want := strconv.Itoa(over); node.Attrs["spans_dropped"] != want {
		t.Errorf("root spans_dropped attr = %q, want %s", node.Attrs["spans_dropped"], want)
	}
}

// TestDefaultBudgetUnreachedLeavesNoAttr: a trace that never drops a
// span does not carry a spans_dropped attr.
func TestDefaultBudgetUnreachedLeavesNoAttr(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "req")
	_, sp := StartSpan(ctx, "child")
	sp.End()
	node := tr.Finish()
	if _, ok := node.Attrs["spans_dropped"]; ok {
		t.Errorf("unexpected spans_dropped attr: %v", node.Attrs)
	}
}

// TestAttachRemoteStitchesSubtree pins the cross-process grafting
// contract: a remote child tree attaches beneath the grafting span with
// its start offsets rebased onto that span's timeline, and the renderer
// marks remote spans with a "»" prefix.
func TestAttachRemoteStitchesSubtree(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "req")
	_, sp := StartSpan(ctx, "net.exec")
	remote := &SpanNode{
		Name:    "child.query",
		StartMS: 0,
		DurMS:   5,
		Attrs:   map[string]string{"remote": "child"},
		Children: []*SpanNode{
			{Name: "sqldb.scan", StartMS: 1, DurMS: 3},
		},
	}
	sp.AttachRemote(remote)
	sp.End()
	node := tr.Finish()

	graft := node.Find("net.exec")
	if graft == nil {
		t.Fatalf("no net.exec span:\n%s", node.Render())
	}
	got := graft.Find("child.query")
	if got == nil {
		t.Fatalf("remote subtree not attached:\n%s", node.Render())
	}
	if got == remote {
		t.Error("remote subtree attached by reference, want deep copy")
	}
	// The remote root's local StartMS (0) is rebased onto the grafting
	// span's own start offset; the relative child offset survives.
	if got.StartMS != graft.StartMS {
		t.Errorf("remote root StartMS = %v, want grafting span's %v", got.StartMS, graft.StartMS)
	}
	scan := got.Find("sqldb.scan")
	if scan == nil {
		t.Fatalf("remote child span missing:\n%s", node.Render())
	}
	// Rebasing adds the graft's offset to both, so the difference is 1
	// only up to float rounding.
	if delta := scan.StartMS - got.StartMS; math.Abs(delta-1) > 1e-9 {
		t.Errorf("remote child relative offset = %v, want 1", delta)
	}
	if !strings.Contains(node.Render(), "» child.query") {
		t.Errorf("remote marker missing from render:\n%s", node.Render())
	}
	// Attaching to a nil span is a safe no-op.
	var nilSpan *Span
	nilSpan.AttachRemote(remote)
}

// TestShouldSampleEdges: p<=0 never samples, p>=1 always does.
func TestShouldSampleEdges(t *testing.T) {
	for i := 0; i < 100; i++ {
		if ShouldSample(0) {
			t.Fatal("ShouldSample(0) = true")
		}
		if !ShouldSample(1) {
			t.Fatal("ShouldSample(1) = false")
		}
	}
}

// TestTraceStoreRetention covers the ring: add/get/list ordering,
// count-cap eviction with drop accounting, and stats.
func TestTraceStoreRetention(t *testing.T) {
	ts := NewTraceStore(3, 0)
	for i := 0; i < 5; i++ {
		ts.Add("id"+strconv.Itoa(i), &SpanNode{Name: "request", DurMS: float64(i)})
	}
	st := ts.Stats()
	if st.Entries != 3 || st.Sampled != 5 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 3 entries, 5 sampled, 2 dropped", st)
	}
	if _, ok := ts.Get("id0"); ok {
		t.Error("evicted trace still retrievable")
	}
	got, ok := ts.Get("id4")
	if !ok || got.Name != "request" || got.DurMS != 4 {
		t.Fatalf("Get(id4) = %+v %v", got, ok)
	}
	sums := ts.List(0)
	if len(sums) != 3 || sums[0].ID != "id4" || sums[2].ID != "id2" {
		t.Fatalf("List = %+v, want id4..id2 newest first", sums)
	}
	if got := ts.List(1); len(got) != 1 || got[0].ID != "id4" {
		t.Fatalf("List(1) = %+v", got)
	}
}

// TestTraceStoreByteCap: the byte cap evicts oldest-first independently
// of the entry cap.
func TestTraceStoreByteCap(t *testing.T) {
	big := &SpanNode{Name: strings.Repeat("x", 400)}
	probe := NewTraceStore(100, 1<<20)
	probe.Add("probe", big)
	one := probe.Stats().Bytes
	if one <= 0 {
		t.Fatal("no byte accounting")
	}

	ts := NewTraceStore(100, 2*one)
	for i := 0; i < 4; i++ {
		ts.Add("id"+strconv.Itoa(i), big)
	}
	st := ts.Stats()
	if st.Entries != 2 || st.Bytes > 2*one || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 2 entries within %d bytes, 2 dropped", st, 2*one)
	}
}

// TestTraceStoreSlowestPin: the slowest trace of the window survives
// eviction — still retrievable by ID and flagged in listings after a
// burst of fast traces flushes the ring.
func TestTraceStoreSlowestPin(t *testing.T) {
	ts := NewTraceStore(2, 0)
	ts.Add("slow", &SpanNode{Name: "request", DurMS: 500})
	for i := 0; i < 5; i++ {
		ts.Add("fast"+strconv.Itoa(i), &SpanNode{Name: "request", DurMS: 1})
	}
	got, ok := ts.Get("slow")
	if !ok || got.DurMS != 500 {
		t.Fatalf("pinned slowest trace lost: %+v %v", got, ok)
	}
	sums := ts.List(0)
	// Ring holds the two newest fast traces; the pinned slow one is
	// appended and flagged.
	if len(sums) != 3 {
		t.Fatalf("List = %+v, want 2 ring + 1 pinned", sums)
	}
	last := sums[len(sums)-1]
	if last.ID != "slow" || !last.Slowest {
		t.Errorf("pinned entry = %+v, want slow/Slowest", last)
	}
	for _, s := range sums[:2] {
		if s.Slowest {
			t.Errorf("ring entry %s wrongly flagged slowest", s.ID)
		}
	}
}

// TestTraceStoreNilSafety: every method on a nil store is a no-op.
func TestTraceStoreNilSafety(t *testing.T) {
	var ts *TraceStore
	ts.Add("id", &SpanNode{Name: "x"})
	if _, ok := ts.Get("id"); ok {
		t.Error("nil store returned a trace")
	}
	if got := ts.List(0); got != nil {
		t.Errorf("nil store listed %v", got)
	}
	if st := ts.Stats(); st != (TraceStoreStats{}) {
		t.Errorf("nil store stats %+v", st)
	}
}
