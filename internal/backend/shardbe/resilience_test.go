package shardbe

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/resilience"
	"seedb/internal/sqldb"
)

// testClock is an injectable clock shared by every breaker in a router.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newFaultRouter scatters the source across n children and wraps child 0
// in a faultbe so tests can script its outages.
func newFaultRouter(t *testing.T, src *sqldb.DB, n int, opts Options) (*Router, *faultbe.Fault) {
	t.Helper()
	dbs, bes := EmbeddedChildren(n)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	fault := faultbe.Wrap(bes[0])
	bes[0] = fault
	r, err := New(bes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, fault
}

// TestPartialMergeOracle pins the degraded-results contract: with one of
// three children hard-down, an allow-partial query must return exactly
// the unsharded result computed over the surviving partitions' rows —
// bit-identical values, not an approximation.
func TestPartialMergeOracle(t *testing.T) {
	const rows = 90
	src := buildSource(t, rows)
	r, fault := newFaultRouter(t, src, 3, Options{})
	fault.SetDown(backend.ErrUnavailable)
	ctx := backend.WithAllowPartial(context.Background())

	// Blocks partitioning is contiguous: child 0 owns rows [0, 30), so
	// the surviving partitions are exactly rows [30, 90).
	const surviveLo = rows / 3
	queries := []string{
		"SELECT region, COUNT(*), SUM(price), AVG(price), MIN(qty), MAX(qty) FROM sales GROUP BY region",
		"SELECT COUNT(DISTINCT region), COUNT(*) FROM sales",
		"SELECT qty, AVG(price) FROM sales GROUP BY qty HAVING COUNT(*) > 2 ORDER BY 2 DESC LIMIT 3",
		"SELECT region, qty FROM sales WHERE price IS NOT NULL ORDER BY qty DESC, region LIMIT 7",
	}
	for _, sql := range queries {
		want, err := src.QueryOpts(sql, sqldb.ExecOptions{Lo: surviveLo, Hi: rows})
		if err != nil {
			t.Fatalf("%s: oracle: %v", sql, err)
		}
		got, stats, err := r.Exec(ctx, sql, backend.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: degraded exec: %v", sql, err)
		}
		if stats.ShardsDegraded != 1 || len(stats.DegradedShards) != 1 || stats.DegradedShards[0] != 0 {
			t.Fatalf("%s: degraded stats = %d %v, want 1 [0]", sql, stats.ShardsDegraded, stats.DegradedShards)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", sql, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if got.Rows[i][j].String() != want.Rows[i][j].String() || got.Rows[i][j].Kind != want.Rows[i][j].Kind {
					t.Errorf("%s: row %d col %d = %s, want %s", sql, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
	}
}

// TestPerRequestAllowPartial verifies the per-request opt-in reaches the
// fan-out through the context alone, and that it is per request: the
// same router answers the next call without it strictly.
func TestPerRequestAllowPartial(t *testing.T) {
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{})
	fault.SetDown(backend.ErrUnavailable)

	_, stats, err := r.Exec(backend.WithAllowPartial(context.Background()),
		"SELECT COUNT(*) FROM sales", backend.ExecOptions{})
	if err != nil {
		t.Fatalf("per-request allow-partial exec: %v", err)
	}
	if stats.ShardsDegraded != 1 {
		t.Errorf("ShardsDegraded = %d, want 1", stats.ShardsDegraded)
	}
	if _, _, err := r.Exec(context.Background(), "SELECT COUNT(*) FROM sales", backend.ExecOptions{}); !errors.Is(err, backend.ErrUnavailable) {
		t.Errorf("strict exec after a partial one = %v, want ErrUnavailable", err)
	}
}

// TestStrictModeOutageIsError pins the default contract: without
// allow-partial, a down child fails the whole query with ErrUnavailable
// (the server classifies that as 502, never a silent partial answer).
func TestStrictModeOutageIsError(t *testing.T) {
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{})
	fault.SetDown(backend.ErrUnavailable)

	_, _, err := r.Exec(context.Background(), "SELECT COUNT(*) FROM sales", backend.ExecOptions{})
	if err == nil {
		t.Fatal("strict exec over a down child should fail")
	}
	if !errors.Is(err, backend.ErrUnavailable) {
		t.Errorf("error should wrap ErrUnavailable, got %v", err)
	}
}

// TestAllShardsDownIsOutage: allow-partial tolerates losing part of the
// ring, not all of it — with every child down the query is an outage.
func TestAllShardsDownIsOutage(t *testing.T) {
	src := buildSource(t, 90)
	dbs, bes := EmbeddedChildren(3)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	faults := make([]*faultbe.Fault, len(bes))
	for i := range bes {
		faults[i] = faultbe.Wrap(bes[i])
		faults[i].SetDown(backend.ErrUnavailable)
		bes[i] = faults[i]
	}
	r, err := New(bes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.Exec(backend.WithAllowPartial(context.Background()), "SELECT COUNT(*) FROM sales", backend.ExecOptions{})
	if !errors.Is(err, backend.ErrUnavailable) {
		t.Errorf("all-down exec should be ErrUnavailable, got %v", err)
	}
}

// TestRangeOnDownShardIsEmptyDegraded: a row range confined to the down
// child's partition has no surviving rows, but healthy children remain
// elsewhere — the partial contract returns an empty degraded result,
// not an outage.
func TestRangeOnDownShardIsEmptyDegraded(t *testing.T) {
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{})
	fault.SetDown(backend.ErrUnavailable)

	// Rows [5, 25) live entirely inside child 0's [0, 30) block.
	rows, stats, err := r.Exec(backend.WithAllowPartial(context.Background()),
		"SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{Lo: 5, Hi: 25})
	if err != nil {
		t.Fatalf("range-on-down-shard exec: %v", err)
	}
	if len(rows.Rows) != 0 {
		t.Errorf("expected empty degraded result, got %d rows", len(rows.Rows))
	}
	if stats.ShardsDegraded != 1 {
		t.Errorf("ShardsDegraded = %d, want 1", stats.ShardsDegraded)
	}
}

// TestBreakerTripsEvictsAndRecovers drives the full breaker lifecycle
// through real fan-outs: consecutive failures open child 0's circuit,
// an open circuit stops queries from touching the child at all, and
// after the cooldown a single successful half-open probe closes it.
func TestBreakerTripsEvictsAndRecovers(t *testing.T) {
	const threshold = 3
	clk := &testClock{t: time.Unix(1000, 0)}
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{
		Breakers: &resilience.BreakerOptions{
			FailureThreshold: threshold,
			Cooldown:         time.Second,
			Now:              clk.now,
		},
	})
	fault.SetDown(backend.ErrUnavailable)
	ctx := backend.WithAllowPartial(context.Background())
	const sql = "SELECT COUNT(*) FROM sales"

	for i := 0; i < threshold; i++ {
		if _, _, err := r.Exec(ctx, sql, backend.ExecOptions{}); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	bs := r.BreakerStats()
	if bs[0].State != resilience.Open {
		t.Fatalf("after %d failures breaker state = %v, want open", threshold, bs[0].State)
	}
	if bs[0].Transitions.ClosedToOpen != 1 {
		t.Errorf("ClosedToOpen = %d, want 1", bs[0].Transitions.ClosedToOpen)
	}

	// Open circuit: further queries degrade without touching the child.
	before := fault.Execs()
	for i := 0; i < 4; i++ {
		if _, stats, err := r.Exec(ctx, sql, backend.ExecOptions{}); err != nil || stats.ShardsDegraded != 1 {
			t.Fatalf("open-circuit exec: err=%v degraded=%d", err, stats.ShardsDegraded)
		}
	}
	if got := fault.Execs(); got != before {
		t.Errorf("open circuit still reached the child: %d execs, want %d", got, before)
	}

	// Cooldown elapses and the child recovers: the next query carries
	// the half-open probe, succeeds, and closes the circuit.
	fault.SetDown(nil)
	clk.advance(2 * time.Second)
	_, stats, err := r.Exec(ctx, sql, backend.ExecOptions{})
	if err != nil {
		t.Fatalf("probe exec: %v", err)
	}
	if stats.ShardsDegraded != 0 {
		t.Errorf("recovered exec still degraded: %d", stats.ShardsDegraded)
	}
	bs = r.BreakerStats()
	if bs[0].State != resilience.Closed {
		t.Errorf("post-probe state = %v, want closed", bs[0].State)
	}
	if tr := bs[0].Transitions; tr.OpenToHalfOpen != 1 || tr.HalfOpenToClosed != 1 || tr.HalfOpenToOpen != 0 {
		t.Errorf("transitions = %+v, want exactly one open->half_open and half_open->closed", tr)
	}
	// Healthy children never tripped.
	for i := 1; i < 3; i++ {
		if bs[i].State != resilience.Closed || bs[i].Transitions.ClosedToOpen != 0 {
			t.Errorf("child %d breaker = %+v, want untouched closed", i, bs[i])
		}
	}
}

// TestBreakerFailedProbeReopens: when the half-open probe still fails,
// the circuit snaps back open for another full cooldown.
func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := &testClock{t: time.Unix(1000, 0)}
	src := buildSource(t, 90)
	r, fault := newFaultRouter(t, src, 3, Options{
		Breakers: &resilience.BreakerOptions{
			FailureThreshold: 2,
			Cooldown:         time.Second,
			Now:              clk.now,
		},
	})
	fault.SetDown(backend.ErrUnavailable)
	ctx := backend.WithAllowPartial(context.Background())
	const sql = "SELECT COUNT(*) FROM sales"

	for i := 0; i < 2; i++ {
		if _, _, err := r.Exec(ctx, sql, backend.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(2 * time.Second) // cooldown over, child still down
	if _, _, err := r.Exec(ctx, sql, backend.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	bs := r.BreakerStats()
	if bs[0].State != resilience.Open {
		t.Errorf("state after failed probe = %v, want open", bs[0].State)
	}
	if tr := bs[0].Transitions; tr.OpenToHalfOpen != 1 || tr.HalfOpenToOpen != 1 {
		t.Errorf("transitions = %+v, want one open->half_open and one half_open->open", tr)
	}
}
