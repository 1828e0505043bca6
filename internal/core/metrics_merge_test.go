package core

import (
	"testing"
	"time"
)

func TestMetricsMergeCounters(t *testing.T) {
	a := Metrics{
		ExecTotals: ExecTotals{
			QueriesExecuted: 4, VectorizedQueries: 3, FallbackQueries: 1,
			FallbackReasons:  map[string]int{"row-store table": 1},
			SelectionKernels: 2, ResidualPredicates: 1,
			ScanWorkers: 2, RowsScanned: 100, MaxGroups: 7,
		},
		Views: 10, PhasesRun: 1, CacheHits: 1, Elapsed: time.Second,
	}
	b := Metrics{
		ExecTotals: ExecTotals{
			QueriesExecuted: 6, VectorizedQueries: 2, FallbackQueries: 4,
			FallbackReasons:  map[string]int{"row-store table": 3, "id-space overflow": 1},
			SelectionKernels: 1,
			ScanWorkers:      8, RowsScanned: 50, MaxGroups: 3,
		},
		Views: 5, PhasesRun: 10,
		PrunedViews: 2, EarlyStopped: true, CacheMisses: 2,
		ServedFromCache: true, StrategyDegraded: true, DegradedFrom: "COMB",
		Elapsed: time.Second,
	}
	a.Merge(b)

	if a.Views != 15 || a.QueriesExecuted != 10 || a.RowsScanned != 150 {
		t.Fatalf("additive counters wrong: %+v", a)
	}
	if a.VectorizedQueries+a.FallbackQueries != a.QueriesExecuted {
		t.Fatalf("executed partition broken: %+v", a)
	}
	sum := 0
	for _, n := range a.FallbackReasons {
		sum += n
	}
	if sum != a.FallbackQueries {
		t.Fatalf("reasons sum %d != fallback %d", sum, a.FallbackQueries)
	}
	if a.FallbackReasons["row-store table"] != 4 || a.FallbackReasons["id-space overflow"] != 1 {
		t.Fatalf("FallbackReasons = %v", a.FallbackReasons)
	}
	if a.ScanWorkers != 8 || a.MaxGroups != 7 {
		t.Fatalf("peak counters wrong: workers=%d groups=%d", a.ScanWorkers, a.MaxGroups)
	}
	if !a.EarlyStopped || !a.ServedFromCache || !a.StrategyDegraded || a.DegradedFrom != "COMB" {
		t.Fatalf("flags wrong: %+v", a)
	}
	if a.Elapsed != 2*time.Second || a.PhasesRun != 11 || a.PrunedViews != 2 {
		t.Fatalf("elapsed/phases/pruned wrong: %+v", a)
	}
	if a.CacheHits != 1 || a.CacheMisses != 2 {
		t.Fatalf("cache counters wrong: %+v", a)
	}
	// The source is untouched (maps are not aliased).
	a.FallbackReasons["row-store table"] = 99
	if b.FallbackReasons["row-store table"] != 3 {
		t.Fatalf("merge aliased the source map: %v", b.FallbackReasons)
	}
}

func TestMetricsMergeZeroValues(t *testing.T) {
	// zero.Merge(zero) stays zero, reasons map stays nil.
	var a, b Metrics
	a.Merge(b)
	if a.FallbackReasons != nil {
		t.Fatalf("merge of zero metrics allocated a map: %v", a.FallbackReasons)
	}
	if a.QueriesExecuted != 0 || a.Elapsed != 0 || a.EarlyStopped || a.DegradedFrom != "" {
		t.Fatalf("zero merge mutated: %+v", a)
	}

	// zero.Merge(populated) copies everything.
	src := Metrics{ExecTotals: ExecTotals{QueriesExecuted: 2, FallbackQueries: 2,
		FallbackReasons: map[string]int{"unreported": 2}}, DegradedFrom: "COMB_EARLY"}
	var dst Metrics
	dst.Merge(src)
	if dst.FallbackReasons["unreported"] != 2 || dst.DegradedFrom != "COMB_EARLY" {
		t.Fatalf("zero-dest merge lost data: %+v", dst)
	}

	// populated.Merge(zero) is a no-op on content.
	before := dst.QueriesExecuted
	dst.Merge(Metrics{})
	if dst.QueriesExecuted != before || dst.FallbackReasons["unreported"] != 2 {
		t.Fatalf("merge with zero changed content: %+v", dst)
	}
}

func TestMetricsMergeShardCounters(t *testing.T) {
	a := Metrics{ExecTotals: ExecTotals{ShardQueries: 1, ShardFanout: 4, ShardStragglerMax: 5 * time.Millisecond}}
	b := Metrics{ExecTotals: ExecTotals{ShardQueries: 2, ShardFanout: 8, ShardStragglerMax: 3 * time.Millisecond}}
	a.Merge(b)
	if a.ShardQueries != 3 || a.ShardFanout != 12 {
		t.Fatalf("shard sums wrong: %+v", a)
	}
	if a.ShardStragglerMax != 5*time.Millisecond {
		t.Fatalf("straggler max wrong: %v", a.ShardStragglerMax)
	}
	a.Merge(Metrics{ExecTotals: ExecTotals{ShardStragglerMax: time.Second}})
	if a.ShardStragglerMax != time.Second {
		t.Fatalf("straggler max did not advance: %v", a.ShardStragglerMax)
	}
}

func TestMetricsMergeDegradedFromKeepsFirst(t *testing.T) {
	var a Metrics
	a.Merge(Metrics{StrategyDegraded: true, DegradedFrom: "COMB"})
	a.Merge(Metrics{StrategyDegraded: true, DegradedFrom: "COMB_EARLY"})
	if a.DegradedFrom != "COMB" {
		t.Fatalf("DegradedFrom = %q, want first value kept", a.DegradedFrom)
	}
}
