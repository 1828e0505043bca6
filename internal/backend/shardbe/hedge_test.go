package shardbe

import (
	"context"
	"reflect"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
)

// hedgeFixture builds a 2-child router where child 1 is a faultbe
// straggler, with a healthy replica of child 1's shard available for
// hedged duplicates.
func hedgeFixture(t *testing.T, opts Options) (*Router, *faultbe.Fault) {
	t.Helper()
	src := buildSource(t, 90)
	dbs, bes := EmbeddedChildren(2)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	// The replica is a third embedded store mirroring child 1's shard
	// exactly: re-scatter into a padded child list and keep the copy.
	repDBs, repBes := EmbeddedChildren(2)
	if err := ScatterTable(src, "sales", repDBs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	slow := faultbe.Wrap(bes[1])
	opts.Replicas = [][]backend.Backend{1: {repBes[1]}}
	r, err := New([]backend.Backend{bes[0], slow}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, slow
}

const hedgeQuery = "SELECT region, COUNT(*), SUM(price), AVG(qty) FROM sales GROUP BY region"

// TestHedgeWinnerCancelsStraggler makes child 1 stall far past the
// hedge delay: the duplicate must win, the result must stay bit-exact,
// and the straggling primary must be cancelled instead of dragging the
// fan-out to its pace.
func TestHedgeWinnerCancelsStraggler(t *testing.T) {
	r, slow := hedgeFixture(t, Options{
		Hedge: HedgeOptions{Enabled: true, Delay: 5 * time.Millisecond},
	})
	// The unhedged reference result, before the straggler is installed.
	wantRows, _, err := r.Exec(context.Background(), hedgeQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	slow.SetExecDelay(30 * time.Second)
	start := time.Now()
	rows, stats, err := r.Exec(context.Background(), hedgeQuery, backend.ExecOptions{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hedged fan-out took %v: the straggler was waited out", elapsed)
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
	// The cancelled loser aborts its injected sleep; give the goroutine
	// a moment to observe the cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for slow.Aborted() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if slow.Aborted() == 0 {
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
		t.Errorf("child 1 executed %d times, want 1", got)
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
