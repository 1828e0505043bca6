package core

import (
	"context"
	"math"
	"testing"

	"seedb/internal/sqldb"
)

// TestScanParallelismPreservesResults asserts the scan worker count
// changes cost, not the executor: every worker count runs the vectorized
// path with the workers it was given. That the output stays the same is
// the conformancetest oracle's job.
func TestScanParallelismPreservesResults(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 3000)
	ctx := context.Background()

	run := func(strategy Strategy, scanPar int) *Result {
		res, err := e.Recommend(ctx, req, Options{
			Strategy:        strategy,
			Pruning:         NoPruning,
			ScanParallelism: scanPar,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, strategy := range []Strategy{Sharing, Comb} {
		base := run(strategy, 1)
		if base.Metrics.VectorizedQueries == 0 || base.Metrics.FallbackQueries != 0 || base.Metrics.ScanWorkers != 1 {
			t.Errorf("%v scan=1: vectorized=%d fallback=%d workers=%d, want one vectorized worker",
				strategy, base.Metrics.VectorizedQueries, base.Metrics.FallbackQueries, base.Metrics.ScanWorkers)
		}
		for _, scanPar := range []int{2, 4, 7} {
			got := run(strategy, scanPar)
			if got.Metrics.VectorizedQueries == 0 {
				t.Errorf("%v scan=%d: no vectorized queries", strategy, scanPar)
			}
			if got.Metrics.FallbackQueries != 0 {
				t.Errorf("%v scan=%d: %d queries fell back; SeeDB-shaped queries should all vectorize",
					strategy, scanPar, got.Metrics.FallbackQueries)
			}
			if got.Metrics.ScanWorkers < 2 || got.Metrics.ScanWorkers > scanPar {
				t.Errorf("%v scan=%d: reported %d workers", strategy, scanPar, got.Metrics.ScanWorkers)
			}
		}
	}

	// NO_OPT is the unoptimized baseline: it must ignore ScanParallelism
	// and scan each query with one worker of the same executor.
	noopt := run(NoOpt, 8)
	if noopt.Metrics.FallbackQueries != 0 || noopt.Metrics.ScanWorkers != 1 {
		t.Errorf("NO_OPT: fallback=%d workers=%d, want one vectorized worker",
			noopt.Metrics.FallbackQueries, noopt.Metrics.ScanWorkers)
	}
}

// TestMergeOnArrivalDeterministic forces many concurrent queries to feed
// one dimension's group dictionary in the same phase — one measure per
// query, separate target and (custom) reference queries, three
// dimensions per GROUP BY — and requires every view's full state to be
// bit-identical to a serial run: results merge in arrival order, but
// each cell is fed by exactly one query per phase.
func TestMergeOnArrivalDeterministic(t *testing.T) {
	e := buildTraffic(t, sqldb.LayoutCol, 2000)
	req := Request{Table: "traffic", TargetWhere: "plan = 'pro'",
		Reference: RefCustom, ReferenceWhere: "plan = 'free'",
		Dimensions: trafficDims, Measures: trafficMeasures, Aggs: allAggs}
	ctx := context.Background()
	for _, strategy := range []Strategy{Sharing, Comb} {
		run := func(par int) *Result {
			res, err := e.Recommend(ctx, req, Options{
				Strategy: strategy, Pruning: CIPruning, KeepAllViews: true,
				Parallelism: par, ScanParallelism: 1, MaxAggregatesPerQuery: 1,
				GroupBy: GroupByMaxN,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial := run(1)
		got := run(8)
		if got.Metrics.QueriesExecuted != serial.Metrics.QueriesExecuted {
			t.Fatalf("%v: %d queries in parallel, %d serially", strategy,
				got.Metrics.QueriesExecuted, serial.Metrics.QueriesExecuted)
		}
		if a, b := digestRecs(got.AllViews), digestRecs(serial.AllViews); a != b {
			for i := range serial.AllViews {
				if err := sameDistributions(got.AllViews[i], serial.AllViews[i]); err != nil ||
					got.AllViews[i].View != serial.AllViews[i].View ||
					math.Float64bits(got.AllViews[i].Utility) != math.Float64bits(serial.AllViews[i].Utility) {
					t.Errorf("%v rank %d: %s %v, serial %s %v (%v)", strategy, i, got.AllViews[i].View,
						got.AllViews[i].Utility, serial.AllViews[i].View, serial.AllViews[i].Utility, err)
					break
				}
			}
			t.Fatalf("%v: parallel AllViews digest %016x, serial %016x", strategy, a, b)
		}
	}
}
