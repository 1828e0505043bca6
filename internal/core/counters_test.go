package core

import (
	"context"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// These tests pin the executor-counter contract: on every execution
// path, QueriesExecuted == VectorizedQueries + FallbackQueries, and the
// counters describe what actually ran. The audit behind them found the
// counters are folded in exactly one place (ExecTotals.Add, called
// per paid execution in runQueries); the edge most worth guarding is the
// vectorized fast path's fallback — a query whose shape is eligible but
// whose execution falls back to the row interpreter (row-store table,
// group-id-space overflow). A regression that counted such a query as
// vectorized, or skipped QueriesExecuted for it, would silently skew the
// /healthz executor dashboards and the bench reports.

// assertCounters checks the partition invariants: executed queries
// split into vectorized + fallback, and the per-reason fallback counts
// sum back to the fallback total.
func assertCounters(t *testing.T, m Metrics) {
	t.Helper()
	if m.QueriesExecuted != m.VectorizedQueries+m.FallbackQueries {
		t.Errorf("QueriesExecuted=%d must equal Vectorized=%d + Fallback=%d",
			m.QueriesExecuted, m.VectorizedQueries, m.FallbackQueries)
	}
	reasonSum := 0
	for reason, n := range m.FallbackReasons {
		if reason == "" {
			t.Error("FallbackReasons must not contain an empty reason key")
		}
		if n <= 0 {
			t.Errorf("FallbackReasons[%q] = %d, want positive", reason, n)
		}
		reasonSum += n
	}
	if reasonSum != m.FallbackQueries {
		t.Errorf("FallbackReasons sum to %d, FallbackQueries = %d (%v)",
			reasonSum, m.FallbackQueries, m.FallbackReasons)
	}
}

// TestCountersVectorizedPath: column store + several scan workers runs
// the fast path, and the counters say so.
func TestCountersVectorizedPath(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 2000)
	res, err := e.Recommend(context.Background(), req, Options{
		Strategy: Sharing, K: 3, ScanParallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	assertCounters(t, m)
	if m.QueriesExecuted == 0 || m.VectorizedQueries == 0 {
		t.Errorf("expected vectorized executions, metrics: %+v", m)
	}
	if m.ScanWorkers < 2 {
		t.Errorf("ScanWorkers = %d, want >= 2", m.ScanWorkers)
	}
}

// TestCountersRuntimeFallbackEdge: a row-store table runs the same
// eligible query shapes on the row interpreter (the fast path only scans
// column-store vectors). Every such query must still count as an
// executed fallback query.
func TestCountersRuntimeFallbackEdge(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutRow, 2000)
	res, err := e.Recommend(context.Background(), req, Options{
		Strategy: Sharing, K: 3, ScanParallelism: 4,
		// Row stores default to bin-packed group-bys; pin single so the
		// query count is layout-independent.
		GroupBy: GroupBySingle,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	assertCounters(t, m)
	if m.QueriesExecuted == 0 {
		t.Fatal("no queries executed")
	}
	if m.VectorizedQueries != 0 {
		t.Errorf("row store cannot vectorize, metrics: %+v", m)
	}
	if m.FallbackQueries != m.QueriesExecuted {
		t.Errorf("fallback retries must all be counted: %+v", m)
	}
}

// TestCountersInterpreterShapes: int-dimension group keys vectorize via
// the runtime value dictionaries under SHARING; NoOpt pins one scan
// worker per query, which is still the vectorized executor; phased
// execution mixes per-phase executions. All paths must keep the
// partition invariants.
func TestCountersInterpreterShapes(t *testing.T) {
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "code", Type: sqldb.TypeInt},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("t", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tab.Append([][]sqldb.Value{{sqldb.Int(int64(i % 5)), sqldb.Float(float64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	e := newTestEngine(db)
	req := Request{Table: "t", TargetWhere: "code = 1 OR code = 2",
		Dimensions: []string{"code"}, Measures: []string{"m"}}

	for _, opts := range []Options{
		{Strategy: Sharing, K: 1, ScanParallelism: 4}, // int dim → numeric dictionary fast path
		{Strategy: NoOpt, K: 1, ScanParallelism: 4},   // baseline pins one worker
		{Strategy: Comb, Pruning: CIPruning, K: 1, Phases: 4, ScanParallelism: 4},
	} {
		res, err := e.Recommend(context.Background(), req, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Strategy, err)
		}
		m := res.Metrics
		assertCounters(t, m)
		if m.QueriesExecuted == 0 {
			t.Errorf("%v: no queries executed", opts.Strategy)
		}
		switch opts.Strategy {
		case Sharing:
			if m.FallbackQueries != 0 {
				t.Errorf("SHARING: int group key should vectorize now, metrics: %+v", m)
			}
			if m.SelectionKernels == 0 {
				t.Errorf("SHARING: the combined CASE-flag predicate should compile to kernels, metrics: %+v", m)
			}
		case NoOpt:
			if m.FallbackQueries != 0 || m.ScanWorkers != 1 || m.SelectionKernels == 0 {
				t.Errorf("NO_OPT: want every query vectorized on one worker with kernels, metrics: %+v", m)
			}
		}
	}
}

// TestCountersFallbackReasons: a row-store table reports every fallback
// under the "row-store table" reason.
func TestCountersFallbackReasons(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutRow, 1000)
	res, err := e.Recommend(context.Background(), req, Options{
		Strategy: Sharing, K: 2, ScanParallelism: 4,
		GroupBy: GroupBySingle,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	assertCounters(t, m)
	if m.FallbackQueries == 0 {
		t.Fatal("expected fallback executions on a row store")
	}
	if m.FallbackReasons["row-store table"] != m.FallbackQueries {
		t.Errorf("want all fallbacks under 'row-store table', got %v", m.FallbackReasons)
	}
}

// TestCountersCacheHitsExcluded: warm requests count cache hits, not
// executions, so the partition invariant holds trivially at zero.
func TestCountersCacheHitsExcluded(t *testing.T) {
	spec := dataset.Census().WithRows(1000)
	db, _, err := dataset.BuildDB(spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(db)
	req := Request{Table: spec.Name, TargetWhere: spec.TargetPredicate(),
		Dimensions: spec.ViewDimNames(), Measures: spec.MeasureNames()}
	opts := Options{Strategy: Sharing, K: 2, EnableCache: true}
	if _, err := e.Recommend(context.Background(), req, opts); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Recommend(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := warm.Metrics
	assertCounters(t, m)
	if m.QueriesExecuted != 0 || m.VectorizedQueries != 0 || m.FallbackQueries != 0 || m.ScanWorkers != 0 {
		t.Errorf("warm metrics must not report executions: %+v", m)
	}
}
