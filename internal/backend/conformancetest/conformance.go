// Package conformancetest is the shared conformance harness for Backend
// implementations and the recommendation-level oracle: it generates
// whole Recommend cases — a quantized synthetic table in one physical
// row order, a target predicate under a reference mode, views, a
// distance and an engine configuration (cases.go) — runs each against a
// backend under test, and requires the ranked top-k and the full
// ranking to match an embedded-reference run bit for bit. Cache reuse
// and invalidation, introspection cancellation and statistics reuse are
// checked alongside. The package's own tests hold every non-pruning
// configuration on the embedded engine to the unoptimized plan, pin the
// pruners' accuracy per row order, and check degraded router results
// against the surviving rows.
//
// Capability degradations are honored exactly as the engine applies
// them (core.EffectiveStrategy): a backend without row-range scans is
// compared against the reference running the degraded single-pass
// strategy, so the harness verifies the documented behavior, not a
// fiction. Everything else — which views win, their utilities, their
// distributions, how many queries were executed — must agree exactly.
//
// To check a new backend, give the harness a constructor that builds
// the backend over a case's source data (an embedded sqldb database the
// reference engine also reads) and call Run from a test in your
// package:
//
//	func TestConformance(t *testing.T) {
//		conformancetest.Harness{
//			New: func(tb testing.TB, db *sqldb.DB) backend.Backend {
//				return mybackend.New(loadInto(tb, db))
//			},
//		}.Run(t)
//	}
package conformancetest

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/cache"
	"seedb/internal/core"
	"seedb/internal/sqldb"
)

// Harness drives the conformance suite for one Backend implementation.
type Harness struct {
	// New constructs the backend under test over a case's source
	// database. The backend must serve the same data db holds (wrap db
	// directly, or mirror its contents into the external store).
	New func(tb testing.TB, db *sqldb.DB) backend.Backend
	// Invalidate signals the backend that db's contents changed, for
	// backends whose TableVersion cannot observe source writes (e.g.
	// sqlbe's instance-scoped generations need a BumpVersion). Nil when
	// versioning tracks the source automatically.
	Invalidate func(be backend.Backend)
}

// Run executes the full conformance suite against the backend under
// test.
func (h Harness) Run(t *testing.T) {
	t.Run("Scenarios", h.runScenarios)
	t.Run("CacheReuseAndInvalidation", h.runCaching)
	t.Run("IntrospectionCancellation", h.runIntrospectionCancellation)
	t.Run("StatisticsRememberedPerVersion", h.runStatsReuse)
}

// statsCounter counts the TableStats calls reaching a backend.
type statsCounter struct {
	backend.Backend
	calls atomic.Int64
}

func (c *statsCounter) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	c.calls.Add(1)
	return c.Backend.TableStats(ctx, table)
}

// runStatsReuse checks the engine, not the backend, remembers table
// statistics: with a cache installed, a request that derives its views
// from statistics asks the backend for them once per version, whatever
// its own cache flag — a warm request at the same version asks zero
// times and answers the same, and a new version asks again.
func (h Harness) runStatsReuse(t *testing.T) {
	c := genCase(0)
	c.Req.Dimensions, c.Req.Measures = nil, nil
	db := c.source(t)
	under := &statsCounter{Backend: h.New(t, db)}
	eng := core.NewEngine(under)
	eng.SetCache(cache.New(0))
	run := func(step string, wantCalls int64) *core.Result {
		t.Helper()
		under.calls.Store(0)
		res := recommend(t, c, eng, core.Options{Strategy: core.Sharing, K: 3})
		if got := under.calls.Load(); got != wantCalls {
			t.Errorf("%s: %d TableStats calls, want %d", step, got, wantCalls)
		}
		return res
	}
	cold := run("cold", 1)
	sameResult(t, c, "warm, same version", run("warm, same version", 0), cold)
	c.appendTail(t, db, 100)
	if h.Invalidate != nil {
		h.Invalidate(under.Backend)
	}
	run("new version", 1)
}

// runIntrospectionCancellation checks the introspection half of the
// Backend contract honors context cancellation: against a fresh backend
// (no introspection memo), a cancelled ctx must fail TableInfo and
// TableStats promptly and report no version token, rather than issuing
// store round-trips whose results the caller will discard.
func (h Harness) runIntrospectionCancellation(t *testing.T) {
	db := genCase(0).source(t)
	under := h.New(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := under.TableInfo(ctx, SourceTable); err == nil {
		t.Error("TableInfo with a cancelled ctx must fail")
	}
	if _, err := under.TableStats(ctx, SourceTable); err == nil {
		t.Error("TableStats with a cancelled ctx must fail")
	}
	if v, ok := under.TableVersion(ctx, SourceTable); ok {
		t.Errorf("TableVersion with a cancelled ctx reported %q, want absent", v)
	}

	// And the same calls succeed once the context is live again.
	live := context.Background()
	if _, err := under.TableInfo(live, SourceTable); err != nil {
		t.Errorf("TableInfo after cancellation: %v", err)
	}
	if _, err := under.TableStats(live, SourceTable); err != nil {
		t.Errorf("TableStats after cancellation: %v", err)
	}
}

// runScenarios runs every generated case on the backend under test and
// on the embedded reference, grouped by the case's configuration, and
// requires the complete output and the executor counters to agree. The
// "union" group runs again every case that leaves the group-by strategy
// to the engine and shares scans, under GroupByUnion: one UNION ALL
// statement per phase, whatever layout the backend reports.
func (h Harness) runScenarios(t *testing.T) {
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for i := range numCases {
				if c := genCase(i); c.Config == cfg.name {
					t.Run(fmt.Sprintf("seed%02d", c.Seed), func(t *testing.T) { h.checkCase(t, c) })
				}
			}
		})
	}
	t.Run("union", func(t *testing.T) {
		for i := range numCases {
			c := genCase(i)
			if c.Opts.GroupBy != core.GroupByAuto || c.Opts.Strategy == core.NoOpt {
				continue
			}
			c.Opts.GroupBy = core.GroupByUnion
			t.Run(fmt.Sprintf("%s/seed%02d", c.Config, c.Seed), func(t *testing.T) { h.checkCase(t, c) })
		}
	})
}

// checkCase builds c's table, the backend under test over it, and (for
// a drift case) appends the tail once the backend serves. The reference
// runs the strategy the engine actually runs on the backend (documented
// degradation).
func (h Harness) checkCase(t *testing.T, c Case) {
	db := c.source(t)
	under := h.New(t, db)
	if c.Tail > 0 {
		c.appendTail(t, db, c.Tail)
		if h.Invalidate != nil {
			h.Invalidate(under)
		}
	}
	opts := c.Opts
	opts.KeepAllViews = true
	// Pin the group-by strategy unless the case chose one: the default
	// follows the layout the backend reports, which changes how many
	// queries run (never what they return).
	if opts.GroupBy == core.GroupByAuto {
		opts.GroupBy = core.GroupBySingle
	}
	refOpts := opts
	refOpts.Strategy = core.EffectiveStrategy(opts.Strategy, under.Capabilities())
	want := recommend(t, c, core.NewEngine(backend.NewEmbedded(db)), refOpts)
	got := recommend(t, c, core.NewEngine(under), opts)
	sameResult(t, c, "backend", got, want)
	// The same effective plan issues the same number of queries, and on
	// every backend the executed count partitions into vectorized +
	// fallback (cache hits count in neither).
	g, w := got.Metrics.ExecTotals, want.Metrics.ExecTotals
	if g.QueriesExecuted != w.QueriesExecuted || g.QueriesExecuted != g.VectorizedQueries+g.FallbackQueries ||
		w.QueriesExecuted != w.VectorizedQueries+w.FallbackQueries {
		t.Errorf("executor counters: got %+v, reference %+v", g, w)
	}
}

// recommend runs c's request on eng, failing with c's reproduction.
func recommend(t testing.TB, c Case, eng *core.Engine, opts core.Options) *core.Result {
	t.Helper()
	res, err := eng.Recommend(context.Background(), c.Req, opts)
	if err != nil {
		t.Fatalf("%v\nreproduce: %v", err, c)
	}
	return res
}

// sameResult requires got's ranked top-k and full ranking to equal
// want's bit for bit, reporting the first divergence and c's
// reproduction.
func sameResult(t testing.TB, c Case, what string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Recommendations, want.Recommendations) || !reflect.DeepEqual(got.AllViews, want.AllViews) {
		t.Errorf("%s diverges: %s\nreproduce: %v", what, firstDiff(got.AllViews, want.AllViews), c)
	}
}

// runCaching exercises the shared result cache through the backend
// under test: whole-request reuse, a second target predicate on the warm
// cache matching its uncached result, and versioned invalidation after
// the data changes.
func (h Harness) runCaching(t *testing.T) {
	c := genCase(0)
	db := c.source(t)
	under := h.New(t, db)
	eng := core.NewEngine(under)
	opts := core.Options{Strategy: core.Sharing, K: 3, EnableCache: true}

	cold := recommend(t, c, eng, opts)
	if cold.Metrics.QueriesExecuted == 0 || cold.Metrics.ServedFromCache {
		t.Fatalf("cold run metrics: %+v", cold.Metrics)
	}
	warm := recommend(t, c, eng, opts)
	if !warm.Metrics.ServedFromCache || warm.Metrics.QueriesExecuted != 0 {
		t.Errorf("repeat request not served from cache: %+v", warm.Metrics)
	}
	sameResult(t, c, "cached result", warm, cold)

	// A second target predicate on the warm cache must compute exactly
	// what the same request computes with the cache off.
	other := c
	other.Req.TargetWhere = "code < 2"
	cached := recommend(t, other, eng, opts)
	opts.EnableCache = false
	sameResult(t, other, "second predicate, cache on against cache off", cached, recommend(t, other, eng, opts))

	// Changing the data must invalidate: append rows to the source and
	// tell the backend (when its versioning cannot see source writes).
	c.appendTail(t, db, 300)
	if h.Invalidate != nil {
		h.Invalidate(under)
	}
	opts.EnableCache = true
	if fresh := recommend(t, c, eng, opts); fresh.Metrics.ServedFromCache || fresh.Metrics.QueriesExecuted == 0 {
		t.Errorf("post-invalidation request served stale: %+v", fresh.Metrics)
	}
}

// firstDiff names the first rank at which two rankings differ.
func firstDiff(got, want []core.Recommendation) string {
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("rank %d is\n%+v, want\n%+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d views, want %d", len(got), len(want))
}
