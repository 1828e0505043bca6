package core

// Engine microbenchmarks for the section between phase barriers — merging
// query results into the view accumulators and scoring every live view —
// the layer under the benchmark's server_core.self_ms:
//
//	go test ./internal/core -run '^$' -bench 'PhaseScore|RecommendTraffic' -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// phaseFixture is one phase of a COMB run over seven dimensions, built
// in memory: the shared queries the query builder plans for every
// (dimension, measure, aggregate) view and a combined target/reference
// result for each, then a phase function that merges all results into
// the accumulators and scores every view.
func phaseFixture(tb testing.TB) (phase func()) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	strs := func(prefix string, n int) []sqldb.Value {
		out := make([]sqldb.Value, n)
		for i := range out {
			out[i] = sqldb.Str(fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}
	quantity := []sqldb.Value{sqldb.Null()}
	for q := 1; q <= 50; q++ {
		quantity = append(quantity, sqldb.Int(int64(q)))
	}
	groups := map[string][]sqldb.Value{
		"region":   strs("r", 4),
		"state":    strs("s", 24),
		"city":     append(strs("c", 192), sqldb.Null()),
		"device":   strs("d", 12),
		"plan":     strs("p", 4),
		"active":   {sqldb.Null(), sqldb.Bool(false), sqldb.Bool(true)},
		"quantity": quantity,
	}
	req := Request{Table: "traffic", TargetWhere: "price > 22.5",
		Dimensions: []string{"region", "state", "city", "device", "plan", "active", "quantity"},
		Measures:   []string{"price", "revenue", "score"}, Aggs: allAggs}
	var views []View
	for _, d := range req.Dimensions {
		for _, m := range req.Measures {
			for _, f := range req.Aggs {
				views = append(views, View{Dimension: d, Measure: m, Agg: f})
			}
		}
	}
	opts := Options{Strategy: Comb, GroupBy: GroupBySingle, Distance: distance.EMD}
	alive := make([]bool, len(views))
	for i := range alive {
		alive[i] = true
	}
	queries := (&queryBuilder{table: req.Table, req: req, opts: opts}).build(views, alive)
	results := make([]*backend.Rows, len(queries))
	for qi, q := range queries {
		consumers := q.branches[0].consumers
		cols := 0
		for _, c := range consumers {
			cols = max(cols, c.col+1)
		}
		res := &backend.Rows{}
		for _, g := range groups[views[consumers[0].viewIdx].Dimension] {
			for flag := int64(0); flag < 2; flag++ {
				row := []sqldb.Value{g, sqldb.Int(flag)}
				for c := 2; c < cols; c++ {
					row = append(row, sqldb.Float(float64(rng.Intn(1000))))
				}
				res.Rows = append(res.Rows, row)
			}
		}
		results[qi] = res
	}
	accums, _ := newAccums(views)
	st := &execState{req: req, opts: opts, views: views, accums: accums}
	return func() {
		for qi, q := range queries {
			st.mergeResult(q, results[qi].Rows)
		}
		for _, acc := range st.accums {
			acc.utility(opts.Distance, &st.scratch)
		}
	}
}

// BenchmarkPhaseScore is the section between two phase barriers in
// steady state: every group already known, every cell already grown.
// It allocates nothing (TestPhaseScoreAllocatesNothing pins that).
func BenchmarkPhaseScore(b *testing.B) {
	phase := phaseFixture(b)
	phase()
	b.ReportAllocs()
	for b.Loop() {
		phase()
	}
}

// TestPhaseScoreAllocatesNothing pins BenchmarkPhaseScore's steady state
// at zero heap allocations: merging a phase and rescoring every view
// reuses the dictionaries, cells and scratch vectors of the phase before.
func TestPhaseScoreAllocatesNothing(t *testing.T) {
	phase := phaseFixture(t)
	phase()
	if n := testing.AllocsPerRun(5, phase); n != 0 {
		t.Errorf("steady-state phase allocates %v times, want 0", n)
	}
}

// BenchmarkRecommendTraffic is one uncached Recommend in the benchmark's
// cold_scan shape: a 100k-row column-layout traffic table, COMB + CI,
// EMD, K 5, the full derived view space and a range predicate.
func BenchmarkRecommendTraffic(b *testing.B) {
	e := buildTraffic(b, sqldb.LayoutCol, 100_000)
	req := Request{Table: "traffic", TargetWhere: "price > 22.50 AND sessions < 105"}
	opts := Options{Strategy: Comb, Pruning: CIPruning, K: 5}
	ctx := context.Background()
	b.ReportAllocs()
	var statements, rowVisits int64
	for b.Loop() {
		res, err := e.Recommend(ctx, req, opts)
		if err != nil {
			b.Fatal(err)
		}
		statements += int64(res.Metrics.QueriesExecuted)
		rowVisits += res.Metrics.RowsScanned
	}
	// The work per Recommend, which no host changes.
	b.ReportMetric(float64(statements)/float64(b.N), "statements/op")
	b.ReportMetric(float64(rowVisits)/float64(b.N), "rowvisits/op")
}
