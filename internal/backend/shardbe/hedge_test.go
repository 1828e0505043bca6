package shardbe

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
)

// salesChildren block-partitions a 90-row sales table across n embedded
// children.
func salesChildren(t *testing.T, n int) []backend.Backend {
	t.Helper()
	src := buildSource(t, 90)
	dbs, bes := EmbeddedChildren(n)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	return bes
}

// stallFirst wraps a child whose first Exec blocks until its context is
// cancelled; later calls pass through. Under hedging the first call is
// the primary and the second the duplicate re-issued to the same child,
// so the duplicate always wins and the primary is always the cancelled
// loser.
type stallFirst struct {
	backend.Backend
	calls, aborted atomic.Int64
}

func (s *stallFirst) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	if s.calls.Add(1) == 1 {
		<-ctx.Done()
		s.aborted.Add(1)
		return nil, backend.ExecStats{}, ctx.Err()
	}
	return s.Backend.Exec(ctx, query, opts)
}

// hedgeFixture builds a 2-child router whose child 0 is a faultbe
// wrapper.
func hedgeFixture(t *testing.T, opts Options) (*Router, *faultbe.Fault) {
	t.Helper()
	return newFaultRouter(t, buildSource(t, 90), 2, opts)
}

const hedgeQuery = "SELECT region, COUNT(*), SUM(price), AVG(qty) FROM sales GROUP BY region"

// TestHedgeWinnerCancelsStraggler stalls child 1's first execution until
// it is cancelled: the duplicate must win, the result must stay
// bit-exact, and the straggling primary must be cancelled instead of
// dragging the fan-out to its pace.
func TestHedgeWinnerCancelsStraggler(t *testing.T) {
	bes := salesChildren(t, 2)
	plain, err := New(bes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows, _, err := plain.Exec(context.Background(), hedgeQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	stall := &stallFirst{Backend: bes[1]}
	r, err := New([]backend.Backend{bes[0], stall}, Options{
		Hedge: HedgeOptions{Enabled: true, Delay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without a working hedge the primary waits out this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows, stats, err := r.Exec(ctx, hedgeQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatalf("hedged fan-out: %v (the straggler was waited out)", err)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("hedged result diverges from unhedged:\ngot  %+v\nwant %+v", rows.Rows, wantRows.Rows)
	}
	if stats.HedgedPartials == 0 || stats.HedgeWins == 0 {
		t.Errorf("HedgedPartials = %d, HedgeWins = %d, want both > 0", stats.HedgedPartials, stats.HedgeWins)
	}
	if stats.ShardFanout != 2 {
		t.Errorf("ShardFanout = %d, want 2 (one result per partial, hedged or not)", stats.ShardFanout)
	}
	if got := stall.calls.Load(); got != 2 {
		t.Errorf("child 1 executed %d times, want 2 (primary + duplicate)", got)
	}
	// The router waits a bounded grace for the cancelled loser; give a
	// slow scheduler more.
	deadline := time.Now().Add(5 * time.Second)
	for stall.aborted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if stall.aborted.Load() == 0 {
		t.Error("straggling primary was never cancelled")
	}
}

// TestHedgePrimaryWinsFastPath leaves every child healthy with a
// generous hedge delay: no duplicates should be issued at all.
func TestHedgePrimaryWinsFastPath(t *testing.T) {
	r, slow := hedgeFixture(t, Options{
		Hedge: HedgeOptions{Enabled: true, Delay: 10 * time.Second},
	})
	_, stats, err := r.Exec(context.Background(), hedgeQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HedgedPartials != 0 || stats.HedgeWins != 0 {
		t.Errorf("healthy fan-out hedged: HedgedPartials = %d, HedgeWins = %d", stats.HedgedPartials, stats.HedgeWins)
	}
	if got := slow.Execs(); got != 1 {
		t.Errorf("child 0 executed %d times, want 1", got)
	}
}

// TestHedgeFailureIsNotRetried scripts a child failure: hedging must
// surface it immediately (retries are netbe's job, with a bounded
// budget), not mask it behind a speculative duplicate.
func TestHedgeFailureIsNotRetried(t *testing.T) {
	r, slow := hedgeFixture(t, Options{
		Hedge: HedgeOptions{Enabled: true, Delay: time.Hour},
	})
	slow.FailNextExecs(1, context.DeadlineExceeded)
	_, _, err := r.Exec(context.Background(), hedgeQuery, backend.ExecOptions{})
	if err == nil {
		t.Fatal("scripted child failure did not surface")
	}
	if got := slow.Execs(); got != 1 {
		t.Errorf("failed child executed %d times, want 1 (no hedge-as-retry)", got)
	}
}

// TestAdaptiveHedgeDelay seeds the latency history and checks the
// p95-based delay respects both the distribution and the floor.
func TestAdaptiveHedgeDelay(t *testing.T) {
	r, _ := hedgeFixture(t, Options{Hedge: HedgeOptions{Enabled: true}})
	// No history yet: the floor stands in.
	if d := r.hedgeDelay(); d != hedgeMinDelay {
		t.Errorf("empty-history delay = %v, want the %v floor", d, hedgeMinDelay)
	}
	// History faster than the floor: the floor still wins.
	for i := 0; i < hedgeHistoryMin; i++ {
		r.hedgeLat.Observe(10 * time.Microsecond)
	}
	if d := r.hedgeDelay(); d != hedgeMinDelay {
		t.Errorf("delay = %v after 10µs history, want the %v floor", d, hedgeMinDelay)
	}
	for i := 0; i < 32; i++ {
		r.hedgeLat.Observe(80 * time.Millisecond)
	}
	if d := r.hedgeDelay(); d < 40*time.Millisecond {
		t.Errorf("delay = %v after uniform 80ms history, want ≈p95 (≥40ms)", d)
	}
	// A fixed delay overrides the distribution entirely.
	r.hedge.Delay = 7 * time.Millisecond
	if d := r.hedgeDelay(); d != 7*time.Millisecond {
		t.Errorf("fixed delay = %v, want 7ms", d)
	}
}
