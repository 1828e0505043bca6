// Package conformancetest is the shared conformance harness for Backend
// implementations: it runs the engine's full behavior matrix — sharing
// rewrites, pruning schemes, phased execution, reference modes, cache
// reuse and invalidation — against a backend under test and requires the
// results to match an embedded-reference run bit for bit.
//
// Capability degradations are honored exactly as the engine applies
// them (core.EffectiveStrategy): a backend without row-range scans is
// compared against the reference running the degraded single-pass
// strategy, so the harness verifies the documented behavior, not a
// fiction. Everything else — which views win, their utilities, their
// distributions, how many queries were executed — must agree exactly.
//
// To check a new backend, give the harness a constructor that builds
// the backend over the harness's canonical source data (an embedded
// sqldb database the reference engine also reads) and call Run from a
// test in your package:
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
	"math/rand"
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
	// New constructs the backend under test over the canonical source
	// database. The backend must serve the same data db holds (wrap db
	// directly, or mirror its contents into the external store).
	New func(tb testing.TB, db *sqldb.DB) backend.Backend
	// Invalidate signals the backend that db's contents changed, for
	// backends whose TableVersion cannot observe source writes (e.g.
	// sqlbe's instance-scoped generations need a BumpVersion). Nil when
	// versioning tracks the source automatically.
	Invalidate func(be backend.Backend)
}

// SourceTable is the name of the canonical conformance table.
const SourceTable = "conf"

// BuildSource creates the canonical conformance dataset: a column-store
// table mixing string/bool/int dimensions with int/float measures,
// including NULLs, so every merge and classification path is exercised.
//
// Float measures are multiples of 0.25 with bounded magnitude, so every
// partial sum is exactly representable and any association order yields
// identical bits (the same discipline as sqldb/difftest). That is what
// lets the harness hold partition-merging backends — the shard router
// combines per-shard SUM/AVG partials — to bit-identical results instead
// of a tolerance.
func BuildSource(tb testing.TB, rows int) *sqldb.DB {
	tb.Helper()
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "region", Type: sqldb.TypeString},
		sqldb.Column{Name: "segment", Type: sqldb.TypeString},
		sqldb.Column{Name: "active", Type: sqldb.TypeBool},
		sqldb.Column{Name: "code", Type: sqldb.TypeInt},
		sqldb.Column{Name: "qty", Type: sqldb.TypeInt},
		sqldb.Column{Name: "price", Type: sqldb.TypeFloat},
		sqldb.Column{Name: "score", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable(SourceTable, schema, sqldb.LayoutCol)
	if err != nil {
		tb.Fatal(err)
	}
	appendSourceRows(tb, tab, rows, 1)
	return db
}

// appendSourceRows appends deterministic pseudo-random rows.
func appendSourceRows(tb testing.TB, tab sqldb.Table, rows int, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"east", "west", "north", "south"}
	segments := []string{"retail", "wholesale", "online"}
	for i := 0; i < rows; i++ {
		// Exactly-summable floats (multiples of 0.25): see BuildSource.
		price := sqldb.Float(float64(rng.Intn(400))*0.25 + 1)
		if rng.Intn(20) == 0 {
			price = sqldb.Null()
		}
		row := []sqldb.Value{
			sqldb.Str(regions[rng.Intn(len(regions))]),
			sqldb.Str(segments[rng.Intn(len(segments))]),
			sqldb.Bool(rng.Intn(3) > 0),
			sqldb.Int(int64(rng.Intn(8))),
			sqldb.Int(int64(rng.Intn(100000))),
			price,
			sqldb.Float(float64(rng.Intn(241)-120) * 0.25),
		}
		if err := tab.AppendRow(row); err != nil {
			tb.Fatal(err)
		}
	}
}

// request is the canonical analyst query over the conformance table.
func request() core.Request {
	return core.Request{
		Table:       SourceTable,
		TargetWhere: "segment = 'online'",
		Dimensions:  []string{"region", "segment", "active", "code"},
		Measures:    []string{"qty", "price", "score"},
	}
}

// scenario is one engine configuration of the behavior matrix.
type scenario struct {
	name string
	req  func(core.Request) core.Request
	opts core.Options
}

// scenarios spans strategies × pruning × reference modes × group-by
// strategies × sharing ablations, mirroring the engine's own test
// matrix (sharing, pruning, phased execution).
func scenarios() []scenario {
	id := func(r core.Request) core.Request { return r }
	complement := func(r core.Request) core.Request { r.Reference = core.RefComplement; return r }
	custom := func(r core.Request) core.Request {
		r.Reference = core.RefCustom
		r.ReferenceWhere = "region = 'west' OR region = 'north'"
		return r
	}
	multiAgg := func(r core.Request) core.Request {
		r.Aggs = []core.AggFunc{core.AggAvg, core.AggSum, core.AggCount, core.AggMin, core.AggMax}
		return r
	}
	derived := func(r core.Request) core.Request {
		r.Dimensions, r.Measures = nil, nil
		return r
	}
	return []scenario{
		{"noopt", id, core.Options{Strategy: core.NoOpt, K: 4}},
		{"sharing", id, core.Options{Strategy: core.Sharing, K: 4}},
		{"sharing/complement", complement, core.Options{Strategy: core.Sharing, K: 4}},
		{"sharing/custom-ref", custom, core.Options{Strategy: core.Sharing, K: 4}},
		{"sharing/multi-agg", multiAgg, core.Options{Strategy: core.Sharing, K: 6, MaxAggregatesPerQuery: 2}},
		{"sharing/no-combine-targetref", id, core.Options{Strategy: core.Sharing, K: 4, DisableCombineTargetRef: true}},
		{"sharing/no-combine-aggs", multiAgg, core.Options{Strategy: core.Sharing, K: 4, MaxAggregatesPerQuery: 1}},
		{"sharing/binpack", id, core.Options{Strategy: core.Sharing, K: 4, GroupBy: core.GroupByBinPack, MemoryBudget: 64}},
		{"sharing/maxgb", id, core.Options{Strategy: core.Sharing, K: 4, GroupBy: core.GroupByMaxN, MaxGroupBy: 2}},
		{"sharing/derived-metadata", derived, core.Options{Strategy: core.Sharing, K: 4}},
		{"comb/ci", id, core.Options{Strategy: core.Comb, Pruning: core.CIPruning, K: 3, Phases: 6}},
		{"comb/mab", id, core.Options{Strategy: core.Comb, Pruning: core.MABPruning, K: 3}},
		{"comb/nopruning", id, core.Options{Strategy: core.Comb, Pruning: core.NoPruning, K: 3, Phases: 5}},
		{"comb/random", id, core.Options{Strategy: core.Comb, Pruning: core.RandomPruning, K: 3, Seed: 7}},
		{"combearly/ci", id, core.Options{Strategy: core.CombEarly, Pruning: core.CIPruning, K: 3, Phases: 8, ConfidenceScale: 0.4}},
	}
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
	db := BuildSource(t, 600)
	under := &statsCounter{Backend: h.New(t, db)}
	eng := core.NewEngine(under)
	eng.SetCache(cache.New(0))
	ctx := context.Background()
	req := request()
	req.Dimensions, req.Measures = nil, nil
	opts := core.Options{Strategy: core.Sharing, K: 3, ScanParallelism: 1}

	run := func(step string, wantCalls int64) *core.Result {
		t.Helper()
		under.calls.Store(0)
		res, err := eng.Recommend(ctx, req, opts)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := under.calls.Load(); got != wantCalls {
			t.Errorf("%s: %d TableStats calls, want %d", step, got, wantCalls)
		}
		return res
	}
	cold := run("cold", 1)
	warm := run("warm, same version", 0)
	if !reflect.DeepEqual(cold.Recommendations, warm.Recommendations) {
		t.Error("warm result diverges from cold result")
	}
	tab, ok := db.Table(SourceTable)
	if !ok {
		t.Fatal("source table missing")
	}
	appendSourceRows(t, tab, 100, 7)
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
	db := BuildSource(t, 300)
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

// runScenarios compares every scenario's complete output against the
// embedded reference, and checks the executor-counter invariants.
func (h Harness) runScenarios(t *testing.T) {
	db := BuildSource(t, 2400)
	under := h.New(t, db)
	ref := core.NewEngine(backend.NewEmbedded(db))
	caps := under.Capabilities()
	ctx := context.Background()

	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			req := sc.req(request())
			opts := sc.opts
			// ScanParallelism 1 keeps float aggregation byte-stable, so
			// results must match exactly (the parallel merge reassociates
			// float addition and is checked separately by sqldb/difftest).
			opts.ScanParallelism = 1
			opts.KeepAllViews = true
			// Pin the group-by strategy unless the scenario chose one: the
			// engine's default depends on the backend's reported layout
			// (row stores bin-pack, column stores stay single-attribute),
			// and different groupings reassociate float accumulation. The
			// layout-default behavior itself is covered by engine tests.
			if opts.GroupBy == core.GroupByAuto {
				opts.GroupBy = core.GroupBySingle
			}

			// The reference executes the strategy the engine will actually
			// run on the backend under test (documented degradation).
			refOpts := opts
			refOpts.Strategy = core.EffectiveStrategy(opts.Strategy, caps)
			want, err := ref.Recommend(ctx, req, refOpts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.NewEngine(under).Recommend(ctx, req, opts)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
				t.Errorf("recommendations diverge from embedded reference\ngot:  %s\nwant: %s",
					summarize(got.Recommendations), summarize(want.Recommendations))
			}
			if !reflect.DeepEqual(got.AllViews, want.AllViews) {
				t.Errorf("full view ranking diverges from embedded reference")
			}

			// Executor counters must agree between backends: the same
			// effective plan issues the same number of queries, and on
			// every backend the executed count must partition into
			// vectorized + fallback.
			if got.Metrics.QueriesExecuted != want.Metrics.QueriesExecuted {
				t.Errorf("QueriesExecuted = %d, reference executed %d",
					got.Metrics.QueriesExecuted, want.Metrics.QueriesExecuted)
			}
			checkCounterInvariant(t, got.Metrics)
			checkCounterInvariant(t, want.Metrics)
		})
	}
}

// checkCounterInvariant asserts QueriesExecuted == VectorizedQueries +
// FallbackQueries (cache hits count in neither).
func checkCounterInvariant(t *testing.T, m core.Metrics) {
	t.Helper()
	if m.QueriesExecuted != m.VectorizedQueries+m.FallbackQueries {
		t.Errorf("counter invariant violated: QueriesExecuted=%d, Vectorized=%d + Fallback=%d",
			m.QueriesExecuted, m.VectorizedQueries, m.FallbackQueries)
	}
}

// runCaching exercises the shared result cache through the backend
// under test: whole-request reuse, a second target predicate on the warm
// cache matching its uncached result, and versioned invalidation after
// the data changes.
func (h Harness) runCaching(t *testing.T) {
	db := BuildSource(t, 1200)
	under := h.New(t, db)
	eng := core.NewEngine(under)
	ctx := context.Background()
	req := request()
	opts := core.Options{Strategy: core.Sharing, K: 3, EnableCache: true, ScanParallelism: 1}

	cold, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.QueriesExecuted == 0 || cold.Metrics.ServedFromCache {
		t.Fatalf("cold run metrics: %+v", cold.Metrics)
	}

	warm, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Metrics.ServedFromCache || warm.Metrics.QueriesExecuted != 0 {
		t.Errorf("repeat request not served from cache: %+v", warm.Metrics)
	}
	if !reflect.DeepEqual(cold.Recommendations, warm.Recommendations) {
		t.Error("cached result diverges from cold result")
	}

	// A second target predicate on the warm cache must compute exactly
	// what the same request computes with the cache off.
	other := req
	other.TargetWhere = "region = 'east'"
	cached, err := eng.Recommend(ctx, other, opts)
	if err != nil {
		t.Fatal(err)
	}
	offOpts := opts
	offOpts.EnableCache = false
	uncached, err := eng.Recommend(ctx, other, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Recommendations, uncached.Recommendations) {
		t.Errorf("second predicate: cache-on result diverges from cache-off\ngot:  %s\nwant: %s",
			summarize(cached.Recommendations), summarize(uncached.Recommendations))
	}

	// Changing the data must invalidate: append rows to the source and
	// tell the backend (when its versioning cannot see source writes).
	tab, ok := db.Table(SourceTable)
	if !ok {
		t.Fatal("source table missing")
	}
	appendSourceRows(t, tab, 300, 99)
	if h.Invalidate != nil {
		h.Invalidate(under)
	}
	fresh, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Metrics.ServedFromCache || fresh.Metrics.QueriesExecuted == 0 {
		t.Errorf("post-invalidation request served stale: %+v", fresh.Metrics)
	}
}

// summarize renders a recommendation list compactly for failure output.
func summarize(recs []core.Recommendation) string {
	out := ""
	for i, r := range recs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s:%.6f", r.View, r.Utility)
	}
	return out
}
