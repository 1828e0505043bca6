package shardbe_test

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// merging withholds the engine's decomposable mark, so the router
// re-plans every statement and merges the children's partials, as it
// does for user SQL.
type merging struct{ backend.Backend }

func (m merging) Exec(ctx context.Context, q string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	return m.Backend.Exec(backend.WithDecomposable(ctx, ""), q, opts)
}

// partsSeen counts the results that reach the engine in several parts,
// so the oracle can tell that phases did straddle children.
type partsSeen struct {
	backend.Backend
	multi *atomic.Int64
}

func (p partsSeen) Exec(ctx context.Context, q string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	rows, stats, err := p.Backend.Exec(ctx, q, opts)
	if err == nil && len(rows.Parts) > 1 {
		p.multi.Add(1)
	}
	return rows, stats, err
}

// TestPassThroughMatchesMerge is the pass-through's bit-identity oracle:
// every Recommend over a router whose children answer the engine's
// statements as written, and whose partials the engine folds, must equal
// the same Recommend through a router that merges them — every
// recommendation and every view's estimate, to the bit. The table is
// non-quantized TrafficSpec data (score and price sums are inexact), and
// its 3 001 rows put child boundaries inside phases for 2, 3 and 4
// children, so fold order is what the comparison sees.
func TestPassThroughMatchesMerge(t *testing.T) {
	const rows = 3001
	spec := dataset.TrafficSpec().WithRows(rows).WithSeed(7)
	src := sqldb.NewDB()
	if _, err := dataset.BuildSynth(src, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	type config struct {
		strategy core.Strategy
		pruning  core.PruningScheme
		groupBy  core.GroupByStrategy
	}
	var configs []config
	for _, s := range []core.Strategy{core.Comb, core.CombEarly, core.Sharing, core.NoOpt} {
		prunings := []core.PruningScheme{core.NoPruning, core.CIPruning, core.MABPruning}
		if s == core.Sharing || s == core.NoOpt {
			prunings = prunings[:1] // single-pass plans never prune
		}
		groupBys := []core.GroupByStrategy{core.GroupByUnion, core.GroupBySingle, core.GroupByBinPack}
		if s == core.NoOpt {
			groupBys = groupBys[:1] // one statement per view side, whatever the knob
		}
		for _, p := range prunings {
			for _, g := range groupBys {
				configs = append(configs, config{s, p, g})
			}
		}
	}
	refs := []struct {
		mode  core.RefMode
		where string
	}{{core.RefAll, ""}, {core.RefComplement, ""}, {core.RefCustom, "plan = 'free'"}}

	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("%dchildren", n), func(t *testing.T) {
			dbs, children := shardbe.EmbeddedChildren(n)
			if err := shardbe.ScatterTable(src, spec.Name, dbs, shardbe.Blocks{Total: rows}); err != nil {
				t.Fatal(err)
			}
			r, err := shardbe.New(children, shardbe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var multi atomic.Int64
			folded := core.NewEngine(partsSeen{r, &multi})
			merged := core.NewEngine(merging{r})
			for _, ref := range refs {
				for _, c := range configs {
					req := core.Request{
						Table:          spec.Name,
						TargetWhere:    "region = 'emea' AND quantity > 20",
						Reference:      ref.mode,
						ReferenceWhere: ref.where,
						Dimensions:     []string{"region", "state", "device", "active", "sessions"},
						Measures:       []string{"score", "price", "quantity"},
					}
					opts := core.Options{
						Strategy: c.strategy, Pruning: c.pruning, GroupBy: c.groupBy,
						K: 5, ScanParallelism: 1, KeepAllViews: true,
					}
					name := fmt.Sprintf("%v/%v/%v/ref%d", c.strategy, c.pruning, c.groupBy, ref.mode)
					got, err := folded.Recommend(context.Background(), req, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := merged.Recommend(context.Background(), req, opts)
					if err != nil {
						t.Fatalf("%s (merged): %v", name, err)
					}
					if !reflect.DeepEqual(got.Recommendations, want.Recommendations) {
						t.Errorf("%s: recommendations differ from the merged run", name)
					}
					if !reflect.DeepEqual(got.AllViews, want.AllViews) {
						t.Errorf("%s: view estimates differ from the merged run", name)
					}
					if got.Metrics.MaxGroups != want.Metrics.MaxGroups {
						t.Errorf("%s: MaxGroups %d, merged run %d", name, got.Metrics.MaxGroups, want.Metrics.MaxGroups)
					}
				}
			}
			if multi.Load() == 0 {
				t.Fatal("no statement came back in several parts: the oracle compared nothing the fold decides")
			}
		})
	}
}
