package conformancetest

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/backend/shardbe"
	"seedb/internal/core"
	"seedb/internal/sqldb"
)

// TestConfigurationsMatchUnoptimized is the oracle's exact half: on the
// embedded engine, every configuration that prunes nothing — the sweep,
// a cache cold then warm among them, and a router over 1–4 children
// (the count cycles with the case) — returns the NO_OPT + NO_PRU result
// for every case, bit for bit. With the harness holding every backend
// to the embedded result, that covers every backend × configuration
// pair without running the cross product.
func TestConfigurationsMatchUnoptimized(t *testing.T) {
	t.Parallel()
	sweep := []config{
		{"SHARING, Parallelism 1", core.Options{Strategy: core.Sharing, Parallelism: 1}},
		{"COMB/NO_PRU, ScanParallelism 4", core.Options{Strategy: core.Comb, ScanParallelism: 4}},
		{"COMB_EARLY/NO_PRU", core.Options{Strategy: core.CombEarly}},
		{"BP budget 8", core.Options{Strategy: core.Sharing, GroupBy: core.GroupByBinPack, MemoryBudget: 8}},
		{"BP budget 10^6", core.Options{Strategy: core.Comb, GroupBy: core.GroupByBinPack, MemoryBudget: 1_000_000}},
		{"MAX_GB 2, Parallelism 8", core.Options{Strategy: core.Sharing, GroupBy: core.GroupByMaxN, MaxGroupBy: 2, Parallelism: 8}},
		{"nagg 1", core.Options{Strategy: core.Sharing, MaxAggregatesPerQuery: 1}},
		{"nagg 2", core.Options{Strategy: core.Comb, MaxAggregatesPerQuery: 2}},
		{"UNION, SHARING", core.Options{Strategy: core.Sharing, GroupBy: core.GroupByUnion}},
		{"UNION, COMB/NO_PRU nagg 2, ScanParallelism 3", core.Options{Strategy: core.Comb, GroupBy: core.GroupByUnion, MaxAggregatesPerQuery: 2, ScanParallelism: 3}},
		{"cache cold", core.Options{Strategy: core.Comb, EnableCache: true}},
		{"cache warm", core.Options{Strategy: core.Comb, EnableCache: true}},
	}
	for i := range numCases {
		c := genCase(i)
		t.Run(fmt.Sprintf("seed%02d", c.Seed), func(t *testing.T) {
			db := c.source(t)
			c.appendTail(t, db, c.Tail)
			run := func(eng *core.Engine, opts core.Options) *core.Result {
				opts.K, opts.Distance, opts.KeepAllViews = c.Opts.K, c.Opts.Distance, true
				return recommend(t, c, eng, opts)
			}
			eng := core.NewEngine(backend.NewEmbedded(db))
			base := run(eng, core.Options{Strategy: core.NoOpt})
			for _, cfg := range sweep {
				sameResult(t, c, cfg.name, run(eng, cfg.opts), base)
			}
			n := 1 + int(c.Seed%4)
			_, children := scatter(t, db, n)
			name := fmt.Sprintf("router over %d children", n)
			sameResult(t, c, name, run(core.NewEngine(route(t, children...)), core.Options{Strategy: core.Comb}), base)
		})
	}
}

// pruningFloors pins, per row order, the mean top-k accuracy CI and MAB
// pruning reached over the generated cases against the NO_PRU run of
// the same case, as measured when the baseline was taken. A change that
// lowers one fails here; one that raises it should raise the floor.
var pruningFloors = map[string]struct{ ci, mab float64 }{
	"generated": {0.946, 0.956},
	"dim":       {0.91, 0.923},
	"measure":   {0.926, 0.943},
	"drift":     {0.923, 0.92},
}

// knownPruningFailures lists the row orders on which pruning misses
// pruningContract: a phase is a physical row range, so sorting by the
// target predicate's column puts every target row in a few phases and
// biases the early estimates the pruners discard on. Each must still
// miss, so a fix forces this list to change and its floors to be
// pinned.
var knownPruningFailures = []string{"target"}

// pruningContract is the mean top-k accuracy each row order must reach.
const pruningContract = 0.9

// TestPruningAccuracyBaseline reports CI's and MAB's top-k accuracy per
// row order, every case's table rebuilt in each order, and holds each
// order to its floor or its known failure.
func TestPruningAccuracyBaseline(t *testing.T) {
	t.Parallel()
	ci, mab := map[string]float64{}, map[string]float64{}
	for i := range numCases {
		var exact []core.View
		for _, o := range orders {
			c := genCase(i).withOrder(o)
			db := c.source(t)
			c.appendTail(t, db, c.Tail)
			eng := core.NewEngine(backend.NewEmbedded(db))
			top := func(p core.PruningScheme) []core.View {
				res := recommend(t, c, eng, core.Options{Strategy: core.Comb, Pruning: p, K: c.Opts.K, Distance: c.Opts.Distance})
				return core.ViewsOf(res.Recommendations)
			}
			// The exact top-k does not depend on the row order; the
			// drift tail changes the table.
			if exact == nil || o == "drift" {
				exact = top(core.NoPruning)
			}
			ci[o] += core.Accuracy(exact, top(core.CIPruning)) / numCases
			mab[o] += core.Accuracy(exact, top(core.MABPruning)) / numCases
		}
	}
	for _, o := range orders {
		t.Logf("%-9s CI %.5f  MAB %.5f", o, ci[o], mab[o])
		if slices.Contains(knownPruningFailures, o) {
			if min(ci[o], mab[o]) >= pruningContract {
				t.Errorf("%s order now meets the %.2f contract (CI %.3f, MAB %.3f): drop it from knownPruningFailures and pin its floors", o, pruningContract, ci[o], mab[o])
			}
			continue
		}
		// The tolerance absorbs the rounding of summing the accuracies.
		if f := pruningFloors[o]; ci[o] < f.ci-1e-9 || mab[o] < f.mab-1e-9 {
			t.Errorf("%s order: CI %.3f, MAB %.3f, below the floors %.3f, %.3f", o, ci[o], mab[o], f.ci, f.mab)
		}
	}
}

// deadLeaf is a down child whose introspection fails too.
type deadLeaf struct{ *faultbe.Fault }

func (deadLeaf) TableInfo(context.Context, string) (backend.TableInfo, error) {
	return backend.TableInfo{}, backend.ErrUnavailable
}

// knownExecOnlyDeviations lists the configurations whose allow_partial
// result over an exec-only outage (faultbe.SetDown: introspection still
// answers) differs from the survivors' result: the pinned row count and
// the phase ranges include the dead child's rows, so its phase slices
// read nothing and CI's N counts rows never read. Each must still
// deviate in some case, so a fix forces this list to change.
var knownExecOnlyDeviations = []string{"comb/ci", "comb/mab", "comb/random", "combearly/ci"}

// TestDegradedMatchesSurvivors holds allow_partial results of a router
// over two leaves, one of them down, to the embedded engine over the
// surviving leaf's rows, on every fifth case. A fully-down leaf must
// match under every configuration, both directly and under a nested
// router; an exec-only outage must match except for the known
// deviations.
func TestDegradedMatchesSurvivors(t *testing.T) {
	t.Parallel()
	deviations := map[string]int{}
	for i := 0; i < numCases; i += 5 {
		c := genCase(i)
		db := c.source(t)
		c.appendTail(t, db, c.Tail)
		dbs, children := scatter(t, db, 2)
		down := i / 5 % 2
		ref := core.NewEngine(backend.NewEmbedded(dbs[1-down]))
		fault := faultbe.Wrap(children[down])
		fault.SetDown(backend.ErrUnavailable)
		dead, execOnly := slices.Clone(children), slices.Clone(children)
		dead[down], execOnly[down] = deadLeaf{fault}, fault
		for _, cfg := range configs {
			opts := cfg.opts
			opts.K, opts.Distance, opts.KeepAllViews, opts.AllowPartial = c.Opts.K, c.Opts.Distance, true, true
			want := recommend(t, c, ref, opts)
			sameResult(t, c, cfg.name+", fully-down leaf", recommend(t, c, core.NewEngine(route(t, dead...)), opts), want)
			sameResult(t, c, cfg.name+", fully-down leaf, nested", recommend(t, c, core.NewEngine(route(t, route(t, dead...))), opts), want)
			got := recommend(t, c, core.NewEngine(route(t, execOnly...)), opts)
			if !slices.Contains(knownExecOnlyDeviations, cfg.name) {
				sameResult(t, c, cfg.name+", exec-only outage", got, want)
			} else if !reflect.DeepEqual(got.AllViews, want.AllViews) {
				deviations[cfg.name]++
			}
		}
	}
	t.Logf("cases deviating under an exec-only outage, per configuration: %v", deviations)
	for _, name := range knownExecOnlyDeviations {
		if deviations[name] == 0 {
			t.Errorf("%s now matches the survivors under an exec-only outage: drop it from knownExecOnlyDeviations", name)
		}
	}
}

// scatter copies db's table in contiguous blocks to n embedded children.
func scatter(t testing.TB, db *sqldb.DB, n int) ([]*sqldb.DB, []backend.Backend) {
	t.Helper()
	dbs, children := shardbe.EmbeddedChildren(n)
	tab, _ := db.Table(SourceTable)
	if err := shardbe.ScatterTable(db, SourceTable, dbs, shardbe.Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	return dbs, children
}

// route is a shard router over children.
func route(t testing.TB, children ...backend.Backend) backend.Backend {
	t.Helper()
	r, err := shardbe.New(children, shardbe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}
