// Package telemetry is the zero-dependency observability substrate:
// context-propagated span tracing, log-bucketed latency histograms,
// Prometheus text exposition, and the structured slow-query log. Every
// layer of the system (core engine, sqldb executor, cache, shard
// router, HTTP server) instruments itself through this package; nothing
// here imports any other seedb package, so every layer can.
//
// Tracing is opt-in per request: spans only exist when the caller
// attached a Trace to the context with WithTrace. Without one,
// StartSpan returns a nil *Span whose methods are all no-ops, so the
// disabled cost of an instrumentation site is one context value lookup
// — small enough to leave the instrumentation on permanently (the
// bench harness guards the overhead below 2%).
package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanKey is the context key a trace's current span travels under.
type spanKey struct{}

// DefaultSpanBudget caps how many spans one trace may materialize. A
// traced request over a huge view space creates one span per query;
// past the budget, StartSpan degrades to counting — it returns a nil
// span and the trace's root gains a spans_dropped attribute at Finish —
// instead of growing the tree (and the trace store) without bound.
const DefaultSpanBudget = 4096

// TraceparentHeader is the HTTP header netbe clients stamp on every
// wire call ("/api/query" and "/api/backend/*") so the child server can
// open its own trace under the caller's: "00-<32 hex trace id>-<16 hex
// span id>-01", the W3C traceparent layout.
const TraceparentHeader = "Traceparent"

// traceState is the per-trace state every span shares: the 128-bit
// trace identity and the span-budget accounting.
type traceState struct {
	id      string       // 32 lowercase hex chars (128-bit)
	spans   atomic.Int64 // spans materialized, root included
	dropped atomic.Int64 // StartSpan calls refused by the budget
}

// Trace is one request's trace: a tree of timed spans rooted at the
// span WithTrace created, identified by a random 128-bit trace ID.
// Safe for concurrent span attachment.
type Trace struct {
	start time.Time
	root  *Span
	st    *traceState
}

// Span is one timed operation inside a trace. Spans are created with
// StartSpan, annotated with SetAttr and closed with End; children
// attach concurrently (query worker pools, shard fan-out). All methods
// are nil-receiver safe, which is what makes the untraced path free.
type Span struct {
	name  string
	id    string // 16 lowercase hex chars (64-bit)
	start time.Time
	st    *traceState

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    map[string]string
	children []*Span
	// remote holds pre-serialized span subtrees grafted from other
	// processes (AttachRemote); Node emits them after the local children
	// with their offsets rebased onto this span's start.
	remote []*SpanNode
}

// newID returns n random bytes as lowercase hex. crypto/rand failure is
// unrecoverable enough to not matter for observability identifiers; a
// zero ID is still a valid (if unlucky) one.
func newID(n int) string {
	b := make([]byte, n)
	_, _ = crand.Read(b)
	return hex.EncodeToString(b)
}

// WithTrace attaches a new trace to ctx, rooted at a span with the
// given name and identified by a fresh random 128-bit trace ID. The
// returned context carries the root span, so every StartSpan below it
// builds the tree. Finish the trace (which ends the root) before
// reading the tree.
func WithTrace(ctx context.Context, name string) (context.Context, *Trace) {
	return withTrace(ctx, name, newID(16))
}

// WithRemoteTrace attaches a trace continuing a remote caller's: it
// adopts the caller's trace ID (falling back to a fresh one when the ID
// is not 32 hex chars), so the child-side tree the wire response
// carries home belongs to the caller's trace. The caller grafts it
// under the span that issued the call (AttachRemote).
func WithRemoteTrace(ctx context.Context, name, traceID string) (context.Context, *Trace) {
	if !validHexID(traceID, 32) {
		traceID = newID(16)
	}
	return withTrace(ctx, name, traceID)
}

func withTrace(ctx context.Context, name, traceID string) (context.Context, *Trace) {
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	st := &traceState{id: traceID}
	st.spans.Store(1) // the root
	tr := &Trace{
		start: now,
		root:  &Span{name: name, id: newID(8), start: now, st: st},
		st:    st,
	}
	return context.WithValue(ctx, spanKey{}, tr.root), tr
}

// StartSpan starts a child span under the context's current span. When
// the context carries no trace (or is nil), it returns ctx unchanged
// and a nil span — the no-op fast path. When the trace's span budget is
// exhausted it also returns a nil span, counting the refusal instead of
// growing the tree (the count surfaces as the root's spans_dropped
// attribute).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	if st := parent.st; st != nil {
		// Racing creators may overshoot the budget by a handful of spans;
		// the budget bounds growth, it is not an exact quota.
		if st.spans.Load() >= DefaultSpanBudget {
			st.dropped.Add(1)
			return ctx, nil
		}
		st.spans.Add(1)
	}
	sp := &Span{name: name, id: newID(8), start: time.Now(), st: parent.st}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// TraceID returns the 128-bit trace ID the span belongs to ("" on a nil
// span), which is how slow-log entries join against the trace store.
func (s *Span) TraceID() string {
	if s == nil || s.st == nil {
		return ""
	}
	return s.st.id
}

// Traceparent renders the span as an outgoing propagation header value,
// "00-<trace id>-<span id>-01". Empty on a nil span, so untraced calls
// send no header.
func (s *Span) Traceparent() string {
	if s == nil || s.st == nil {
		return ""
	}
	return "00-" + s.st.id + "-" + s.id + "-01"
}

// ParseTraceparent returns the caller's trace ID from an incoming
// propagation header. ok is false for absent or malformed values (the
// span ID part is checked too) — the callee then simply does not trace.
func ParseTraceparent(h string) (traceID string, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || parts[0] != "00" {
		return "", false
	}
	if !validHexID(parts[1], 32) || !validHexID(parts[2], 16) {
		return "", false
	}
	return parts[1], true
}

// validHexID reports whether s is exactly n lowercase hex characters.
func validHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ShouldSample makes one head-sampling decision at probability p
// (p <= 0 never samples, p >= 1 always does).
func ShouldSample(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rand.Float64() < p
}

// AttachRemote grafts a span subtree produced by another process (the
// child tree a wire response carries) under this span. The subtree is
// emitted after the local children when the trace is snapshotted, with
// its offsets rebased onto this span's start — the network gap between
// the two processes shows up as the difference between this span's
// duration and the grafted root's. Nil-safe on both sides.
func (s *Span) AttachRemote(n *SpanNode) {
	if s == nil || n == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, n)
	s.mu.Unlock()
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End closes the span, recording its duration. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Node snapshots the span's subtree relative to the given trace start
// time (zero time = the span's own start). Open spans report the
// duration elapsed so far. Nil-safe (returns nil).
func (s *Span) Node() *SpanNode {
	if s == nil {
		return nil
	}
	return s.node(s.start)
}

func (s *Span) node(origin time.Time) *SpanNode {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	n := &SpanNode{
		Name:    s.name,
		StartMS: durMS(s.start.Sub(origin)),
		DurMS:   durMS(dur),
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			n.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	remote := append([]*SpanNode(nil), s.remote...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.node(origin))
	}
	for _, rn := range remote {
		n.Children = append(n.Children, shiftNode(rn, n.StartMS))
	}
	return n
}

// shiftNode deep-copies a remote subtree with every offset shifted by
// deltaMS, rebasing the child process's trace origin onto the grafting
// span's start.
func shiftNode(n *SpanNode, deltaMS float64) *SpanNode {
	out := &SpanNode{
		Name:    n.Name,
		StartMS: n.StartMS + deltaMS,
		DurMS:   n.DurMS,
	}
	if len(n.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			out.Attrs[k] = v
		}
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, shiftNode(c, deltaMS))
	}
	return out
}

// Open lists the names of spans still open, excluding the root (which
// Finish closes). Instrumented code that defers End around every
// execution path — cancellation included — keeps this empty by the
// time its caller returns.
func (tr *Trace) Open() []string {
	var open []string
	var walk func(s *Span, root bool)
	walk = func(s *Span, root bool) {
		s.mu.Lock()
		ended := s.ended
		children := append([]*Span(nil), s.children...)
		s.mu.Unlock()
		if !ended && !root {
			open = append(open, s.name)
		}
		for _, c := range children {
			walk(c, false)
		}
	}
	walk(tr.root, true)
	return open
}

// Finish ends the root span (and any still-open descendants, which keep
// the duration elapsed at finish time) and returns the trace tree. When
// the span budget refused spans, the root carries a spans_dropped
// attribute with the refusal count.
func (tr *Trace) Finish() *SpanNode {
	if d := tr.st.dropped.Load(); d > 0 {
		tr.root.SetAttr("spans_dropped", fmt.Sprintf("%d", d))
	}
	tr.endAll(tr.root)
	return tr.root.node(tr.start)
}

// ID returns the trace's 128-bit identifier (32 hex chars).
func (tr *Trace) ID() string { return tr.st.id }

// endAll ends every span in the subtree that is still open.
func (tr *Trace) endAll(s *Span) {
	s.End()
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		tr.endAll(c)
	}
}

// Root returns the trace's root span.
func (tr *Trace) Root() *Span { return tr.root }

// SpanNode is one node of an exported trace tree: the JSON shape the
// server returns under "trace" and the slow-query log embeds.
type SpanNode struct {
	Name string `json:"name"`
	// StartMS is the span's start offset from its tree's origin, in
	// milliseconds; DurMS is its wall-clock duration.
	StartMS  float64           `json:"start_ms"`
	DurMS    float64           `json:"duration_ms"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// Find returns the first node named name in a pre-order walk, or nil.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// Render formats the tree as indented text for terminals (seedb -trace).
// Attributes print sorted, so output is stable.
func (n *SpanNode) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *SpanNode) render(b *strings.Builder, depth int) {
	name := n.Name
	if n.Attrs["remote"] != "" {
		// Mark subtrees that ran in another process (netbe child spans).
		name = "» " + name
	}
	fmt.Fprintf(b, "%s%-*s %9.3fms", strings.Repeat("  ", depth), 24-2*depth, name, n.DurMS)
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "  %s=%s", k, n.Attrs[k])
		}
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// durMS converts a duration to float milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
