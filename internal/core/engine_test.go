package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// newTestEngine wires an engine over the embedded store.
func newTestEngine(db *sqldb.DB) *Engine {
	return NewEngine(backend.NewEmbedded(db))
}

// buildCensus loads a scaled-down census dataset and returns an engine
// plus the canonical request (unmarried vs. all adults).
func buildCensus(t testing.TB, layout sqldb.Layout, rows int) (*Engine, Request) {
	t.Helper()
	db, req := censusDB(t, layout, rows)
	return newTestEngine(db), req
}

// censusDB is buildCensus's database, for tests that mutate table data
// directly.
func censusDB(t testing.TB, layout sqldb.Layout, rows int) (*sqldb.DB, Request) {
	t.Helper()
	spec := dataset.Census().WithRows(rows)
	db, _, err := dataset.BuildDB(spec, layout)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Table:       spec.Name,
		TargetWhere: spec.TargetPredicate(),
		Dimensions:  spec.ViewDimNames(),
		Measures:    spec.MeasureNames(),
	}
	return db, req
}

func TestViewSQLGeneration(t *testing.T) {
	v := View{Dimension: "sex", Measure: "capital_gain", Agg: AggAvg}
	// NO_OPT issues each view as its own target and reference query (QT
	// and QR in the paper); AVG travels as SUM and COUNT so partial
	// results merge.
	for _, tc := range []struct {
		req        Request
		target, rf string
	}{
		{Request{Table: "census", TargetWhere: "marital = 'Unmarried'"},
			"SELECT sex, SUM(capital_gain), COUNT(capital_gain) FROM census WHERE marital = 'Unmarried' GROUP BY sex",
			"SELECT sex, SUM(capital_gain), COUNT(capital_gain) FROM census GROUP BY sex"},
		{Request{Table: "census", TargetWhere: "marital = 'Unmarried'", Reference: RefCustom, ReferenceWhere: "marital = 'Married'"},
			"SELECT sex, SUM(capital_gain), COUNT(capital_gain) FROM census WHERE marital = 'Unmarried' GROUP BY sex",
			"SELECT sex, SUM(capital_gain), COUNT(capital_gain) FROM census WHERE marital = 'Married' GROUP BY sex"},
	} {
		qb := &queryBuilder{table: "census", req: tc.req, opts: Options{Strategy: NoOpt}}
		qs := qb.build([]View{v}, []bool{true})
		if len(qs) != 2 || qs[0].sql != tc.target || qs[1].sql != tc.rf {
			var got []string
			for _, q := range qs {
				got = append(got, q.sql)
			}
			t.Errorf("NO_OPT queries = %q, want [%q %q]", got, tc.target, tc.rf)
		}
	}
	if v.String() != "AVG(capital_gain) BY sex" {
		t.Errorf("String = %q", v.String())
	}
	if v.Key() == (View{Dimension: "sex", Measure: "capital_gain", Agg: AggSum}).Key() {
		t.Error("keys must distinguish aggregate functions")
	}
}

func TestViewGeneratorEnumeration(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 2000)
	views, err := e.Generator().Views(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 40 { // 10 dims × 4 measures × 1 agg
		t.Errorf("views = %d, want 40", len(views))
	}
	// Default aggregate is AVG.
	for _, v := range views {
		if v.Agg != AggAvg {
			t.Errorf("default agg = %v", v.Agg)
		}
	}
	// Multiple aggregate functions multiply the space.
	req.Aggs = []AggFunc{AggAvg, AggSum}
	views, err = e.Generator().Views(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 80 {
		t.Errorf("views with 2 aggs = %d, want 80", len(views))
	}
}

func TestViewGeneratorDerivesFromMetadata(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 2000)
	req.Dimensions = nil
	req.Measures = nil
	views, err := e.Generator().Views(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Census generates 10 string dims and 4 float measures.
	if len(views) != 40 {
		t.Errorf("derived views = %d, want 40", len(views))
	}
}

func TestViewGeneratorErrors(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 500)
	bad := req
	bad.Table = "nope"
	if _, err := e.Generator().Views(context.Background(), bad); err == nil {
		t.Error("unknown table should fail")
	}
	bad = req
	bad.Dimensions = []string{"nosuch"}
	if _, err := e.Generator().Views(context.Background(), bad); err == nil {
		t.Error("unknown dimension should fail")
	}
	bad = req
	bad.Measures = []string{"nosuch"}
	if _, err := e.Generator().Views(context.Background(), bad); err == nil {
		t.Error("unknown measure should fail")
	}
	bad = req
	bad.Aggs = []AggFunc{"MEDIAN"}
	if _, err := e.Generator().Views(context.Background(), bad); err == nil {
		t.Error("unsupported aggregate should fail")
	}
}

func TestRecommendValidation(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 500)
	ctx := context.Background()
	bad := req
	bad.TargetWhere = ""
	if _, err := e.Recommend(ctx, bad, Options{}); err == nil {
		t.Error("empty target predicate should fail")
	}
	bad = req
	bad.Reference = RefCustom
	if _, err := e.Recommend(ctx, bad, Options{}); err == nil {
		t.Error("RefCustom without ReferenceWhere should fail")
	}
	bad = req
	bad.Table = "missing"
	if _, err := e.Recommend(ctx, bad, Options{}); err == nil {
		t.Error("missing table should fail")
	}
	bad = req
	bad.TargetWhere = "syntax error here ("
	if _, err := e.Recommend(ctx, bad, Options{Strategy: Sharing}); err == nil {
		t.Error("malformed predicate should surface a SQL error")
	}
}

func TestRecommendFindsPlantedTopView(t *testing.T) {
	// The census generator plants (sex, capital_gain) as the strongest
	// non-selector deviation; SeeDB must rank it near the top.
	for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		e, req := buildCensus(t, layout, 8000)
		res, err := e.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res.Recommendations {
			if r.View.Dimension == "sex" && r.View.Measure == "capital_gain" {
				found = true
			}
		}
		if !found {
			t.Errorf("[%v] (sex, capital_gain) missing from top-5: %v", layout, ViewsOf(res.Recommendations))
		}
	}
}

func TestSharingReducesQueryCount(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 2000)
	ctx := context.Background()
	noopt, err := e.Recommend(ctx, req, Options{Strategy: NoOpt, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	sharing, err := e.Recommend(ctx, req, Options{Strategy: Sharing, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// NO_OPT: 2 queries per view = 80. SHARING on a column store, with
	// combined target/ref: one UNION ALL statement, a branch for each of
	// the 10 dimensions.
	if noopt.Metrics.QueriesExecuted != 80 {
		t.Errorf("NO_OPT queries = %d, want 80", noopt.Metrics.QueriesExecuted)
	}
	if sharing.Metrics.QueriesExecuted != 1 {
		t.Errorf("SHARING queries = %d, want 1", sharing.Metrics.QueriesExecuted)
	}
	if sharing.Metrics.RowsScanned >= noopt.Metrics.RowsScanned {
		t.Errorf("sharing scanned %d rows, NO_OPT %d — sharing must scan less",
			sharing.Metrics.RowsScanned, noopt.Metrics.RowsScanned)
	}
}

func TestBinPackingReducesQueriesOnRowStore(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutRow, 2000)
	ctx := context.Background()
	single, err := e.Recommend(ctx, req, Options{
		Strategy: Sharing, GroupBy: GroupBySingle, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := e.Recommend(ctx, req, Options{
		Strategy: Sharing, GroupBy: GroupByBinPack, MemoryBudget: 10000, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Metrics.QueriesExecuted >= single.Metrics.QueriesExecuted {
		t.Errorf("bin packing issued %d queries, single %d — packing must combine",
			packed.Metrics.QueriesExecuted, single.Metrics.QueriesExecuted)
	}
}

func TestReferenceModes(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 4000)
	ctx := context.Background()

	// RefComplement: married adults only.
	reqC := req
	reqC.Reference = RefComplement
	resC, err := e.Recommend(ctx, reqC, Options{Strategy: Sharing, K: 3, KeepAllViews: true})
	if err != nil {
		t.Fatal(err)
	}
	// RefCustom with the same complement predicate must agree.
	reqX := req
	reqX.Reference = RefCustom
	reqX.ReferenceWhere = "marital = 'Married'"
	resX, err := e.Recommend(ctx, reqX, Options{Strategy: Sharing, K: 3, KeepAllViews: true})
	if err != nil {
		t.Fatal(err)
	}
	mapOf := func(r *Result) map[string]float64 {
		m := make(map[string]float64)
		for _, rec := range r.AllViews {
			m[rec.View.Key()] = rec.Utility
		}
		return m
	}
	mc, mx := mapOf(resC), mapOf(resX)
	for k, u := range mc {
		if math.Abs(mx[k]-u) > 1e-9 {
			t.Errorf("complement vs custom mismatch on %s: %g vs %g", k, u, mx[k])
		}
	}

	// RefAll must differ from RefComplement (the target rows dilute the
	// reference) but preserve the planted ordering: capital_gain-by-sex
	// still beats age-by-sex.
	resA, err := e.Recommend(ctx, req, Options{Strategy: Sharing, K: 3, KeepAllViews: true})
	if err != nil {
		t.Fatal(err)
	}
	ma := mapOf(resA)
	gainKey := View{Dimension: "sex", Measure: "capital_gain", Agg: AggAvg}.Key()
	ageKey := View{Dimension: "sex", Measure: "age", Agg: AggAvg}.Key()
	if ma[gainKey] <= ma[ageKey] {
		t.Error("RefAll: planted ordering lost")
	}
	if math.Abs(ma[gainKey]-mc[gainKey]) < 1e-12 {
		t.Error("RefAll and RefComplement should differ on utilities")
	}
}

func TestAggregateFunctionsEndToEnd(t *testing.T) {
	// A tiny hand-built table with exactly known aggregates per side.
	db := sqldb.NewDB()
	tab, err := db.CreateTable("t", sqldb.MustSchema(
		sqldb.Column{Name: "grp", Type: sqldb.TypeString},
		sqldb.Column{Name: "flagcol", Type: sqldb.TypeString},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
	), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		g, f string
		m    float64
	}{
		{"a", "t", 1}, {"a", "t", 3}, {"b", "t", 10},
		{"a", "r", 4}, {"b", "r", 2}, {"b", "r", 6},
	}
	for _, r := range rows {
		if err := tab.Append([][]sqldb.Value{{sqldb.Str(r.g), sqldb.Str(r.f), sqldb.Float(r.m)}}); err != nil {
			t.Fatal(err)
		}
	}
	e := newTestEngine(db)
	req := Request{
		Table:       "t",
		TargetWhere: "flagcol = 't'",
		Reference:   RefComplement,
		Dimensions:  []string{"grp"},
		Measures:    []string{"m"},
		Aggs:        []AggFunc{AggAvg, AggSum, AggCount, AggMin, AggMax},
	}
	res, err := e.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 5, KeepAllViews: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[AggFunc]struct {
		target, ref map[string]float64
	}{
		AggAvg:   {map[string]float64{"a": 2, "b": 10}, map[string]float64{"a": 4, "b": 4}},
		AggSum:   {map[string]float64{"a": 4, "b": 10}, map[string]float64{"a": 4, "b": 8}},
		AggCount: {map[string]float64{"a": 2, "b": 1}, map[string]float64{"a": 1, "b": 2}},
		AggMin:   {map[string]float64{"a": 1, "b": 10}, map[string]float64{"a": 4, "b": 2}},
		AggMax:   {map[string]float64{"a": 3, "b": 10}, map[string]float64{"a": 4, "b": 6}},
	}
	if len(res.AllViews) != 5 {
		t.Fatalf("got %d views, want 5", len(res.AllViews))
	}
	for _, r := range res.AllViews {
		w := want[r.View.Agg]
		for g, v := range w.target {
			if math.Abs(r.TargetAgg[g]-v) > 1e-9 {
				t.Errorf("%v target[%s] = %g, want %g", r.View.Agg, g, r.TargetAgg[g], v)
			}
		}
		for g, v := range w.ref {
			if math.Abs(r.ReferenceAgg[g]-v) > 1e-9 {
				t.Errorf("%v ref[%s] = %g, want %g", r.View.Agg, g, r.ReferenceAgg[g], v)
			}
		}
	}
}

func TestCIPruningAccuracy(t *testing.T) {
	// CI pruning on the planted census data must recover most of the
	// true top-k while pruning a meaningful number of views.
	e, req := buildCensus(t, sqldb.LayoutCol, 10000)
	ctx := context.Background()
	oracle, err := e.ExactTopK(ctx, req, distance.EMD, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Recommend(ctx, req, Options{
		Strategy: Comb, Pruning: CIPruning, K: 5, Phases: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(TopViews(oracle, 5), ViewsOf(res.Recommendations))
	if acc < 0.6 {
		t.Errorf("CI accuracy = %.2f, want ≥ 0.6", acc)
	}
	ud := UtilityDistance(TrueUtilityMap(oracle), TopViews(oracle, 5), ViewsOf(res.Recommendations))
	if ud > 0.05 {
		t.Errorf("CI utility distance = %.4f, want ≤ 0.05", ud)
	}
}

func TestMABPruningAccuracy(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 10000)
	ctx := context.Background()
	oracle, err := e.ExactTopK(ctx, req, distance.EMD, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Recommend(ctx, req, Options{
		Strategy: Comb, Pruning: MABPruning, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) != 5 {
		t.Fatalf("got %d recommendations, want 5", len(res.Recommendations))
	}
	acc := Accuracy(TopViews(oracle, 5), ViewsOf(res.Recommendations))
	if acc < 0.6 {
		t.Errorf("MAB accuracy = %.2f, want ≥ 0.6", acc)
	}
	ud := UtilityDistance(TrueUtilityMap(oracle), TopViews(oracle, 5), ViewsOf(res.Recommendations))
	if ud > 0.05 {
		t.Errorf("MAB utility distance = %.4f, want ≤ 0.05", ud)
	}
}

func TestRandomPruningIsWorse(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 6000)
	ctx := context.Background()
	oracle, err := e.ExactTopK(ctx, req, distance.EMD, 5)
	if err != nil {
		t.Fatal(err)
	}
	trueTop := TopViews(oracle, 5)
	trueUtil := TrueUtilityMap(oracle)
	var randAcc, ciAcc float64
	const runs = 5
	for i := 0; i < runs; i++ {
		r1, err := e.Recommend(ctx, req, Options{
			Strategy: Comb, Pruning: RandomPruning, K: 5, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		randAcc += Accuracy(trueTop, ViewsOf(r1.Recommendations))
		r2, err := e.Recommend(ctx, req, Options{
			Strategy: Comb, Pruning: CIPruning, K: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		ciAcc += Accuracy(trueTop, ViewsOf(r2.Recommendations))
	}
	if randAcc >= ciAcc {
		t.Errorf("RANDOM accuracy (%.2f) should be below CI (%.2f)", randAcc/runs, ciAcc/runs)
	}
	_ = trueUtil
}

func TestCombEarlyStopsEarly(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 10000)
	ctx := context.Background()
	// K=4: the four marital (selector) views stand far above the rest,
	// so CI pruning can decide the top-4 long before the scan finishes.
	full, err := e.Recommend(ctx, req, Options{
		Strategy: Comb, Pruning: CIPruning, K: 4, Phases: 20, ConfidenceScale: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	early, err := e.Recommend(ctx, req, Options{
		Strategy: CombEarly, Pruning: CIPruning, K: 4, Phases: 20, ConfidenceScale: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !early.Metrics.EarlyStopped {
		t.Error("COMB_EARLY should have stopped early with aggressive intervals")
	}
	if early.Metrics.RowsScanned >= full.Metrics.RowsScanned {
		t.Errorf("early scanned %d rows, full %d", early.Metrics.RowsScanned, full.Metrics.RowsScanned)
	}
	for _, r := range early.Recommendations {
		if !r.Partial {
			t.Error("early results must be marked partial")
		}
	}
}

func TestPrunedViewCountsReported(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 8000)
	res, err := e.Recommend(context.Background(), req, Options{
		Strategy: Comb, Pruning: CIPruning, K: 5, Phases: 10, ConfidenceScale: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PrunedViews == 0 {
		t.Error("aggressive CI pruning should prune at least one view")
	}
	if res.Metrics.PhasesRun == 0 || res.Metrics.Views != 40 {
		t.Errorf("metrics incomplete: %+v", res.Metrics)
	}
}

func TestContextCancellationPhased(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Recommend(ctx, req, Options{Strategy: Comb}); err == nil {
		t.Error("cancelled context should abort recommendation")
	}
}

func TestKExceedsViewCount(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 1000)
	res, err := e.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 999})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) != 40 {
		t.Errorf("got %d recommendations, want all 40", len(res.Recommendations))
	}
}

func TestRecommendationPayload(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 3000)
	res, err := e.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Recommendations[0]
	if len(r.Groups) == 0 || len(r.Target) != len(r.Groups) || len(r.Reference) != len(r.Groups) {
		t.Fatalf("distribution payload inconsistent: %+v", r)
	}
	sumT, sumR := 0.0, 0.0
	for i := range r.Groups {
		sumT += r.Target[i]
		sumR += r.Reference[i]
	}
	if math.Abs(sumT-1) > 1e-9 || math.Abs(sumR-1) > 1e-9 {
		t.Errorf("distributions not normalized: %g, %g", sumT, sumR)
	}
	if r.Partial {
		t.Error("full-scan result must not be partial")
	}
	if r.Utility <= 0 {
		t.Error("top view should have positive utility")
	}
}

func TestDistanceFunctionOption(t *testing.T) {
	// All five distance functions must run end to end and rank the
	// planted (sex, capital_gain) view above (sex, age).
	e, req := buildCensus(t, sqldb.LayoutCol, 6000)
	gainKey := View{Dimension: "sex", Measure: "capital_gain", Agg: AggAvg}.Key()
	ageKey := View{Dimension: "sex", Measure: "age", Agg: AggAvg}.Key()
	for _, f := range distance.Funcs() {
		res, err := e.Recommend(context.Background(), req, Options{
			Strategy: Sharing, Distance: f, K: 40, KeepAllViews: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		m := make(map[string]float64)
		for _, r := range res.AllViews {
			m[r.View.Key()] = r.Utility
		}
		if m[gainKey] <= m[ageKey] {
			t.Errorf("%v: planted ordering lost (%g vs %g)", f, m[gainKey], m[ageKey])
		}
	}
}

func TestMABAcceptsExactlyK(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 5000)
	res, err := e.Recommend(context.Background(), req, Options{
		Strategy: CombEarly, Pruning: MABPruning, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) != 3 {
		t.Errorf("got %d recommendations, want 3", len(res.Recommendations))
	}
}

func TestAccuracyMetric(t *testing.T) {
	v := func(d string) View { return View{Dimension: d, Measure: "m", Agg: AggAvg} }
	trueTop := []View{v("a"), v("b"), v("c"), v("d")}
	if got := Accuracy(trueTop, []View{v("a"), v("b"), v("c"), v("d")}); got != 1 {
		t.Errorf("perfect accuracy = %g", got)
	}
	if got := Accuracy(trueTop, []View{v("a"), v("b"), v("x"), v("y")}); got != 0.5 {
		t.Errorf("half accuracy = %g", got)
	}
	if got := Accuracy(nil, nil); got != 1 {
		t.Errorf("empty truth accuracy = %g", got)
	}
}

func TestUtilityDistanceMetric(t *testing.T) {
	v := func(d string) View { return View{Dimension: d, Measure: "m", Agg: AggAvg} }
	util := map[string]float64{
		v("a").Key(): 0.5, v("b").Key(): 0.4, v("c").Key(): 0.3, v("d").Key(): 0.2,
	}
	trueTop := []View{v("a"), v("b")}
	// Perfect: distance 0.
	if got := UtilityDistance(util, trueTop, []View{v("a"), v("b")}); got != 0 {
		t.Errorf("perfect UD = %g", got)
	}
	// Swap b (0.4) for c (0.3): averages 0.45 vs 0.40 → 0.05.
	if got := UtilityDistance(util, trueTop, []View{v("a"), v("c")}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("UD = %g, want 0.05", got)
	}
	if got := UtilityDistance(util, nil, nil); got != 0 {
		t.Errorf("empty UD = %g", got)
	}
}

func TestNoOptQueriesAreSerialAndPerView(t *testing.T) {
	// NO_OPT must not share anything: query count is exactly
	// 2 × |views| even when views share dimensions.
	db := sqldb.NewDB()
	tab, _ := db.CreateTable("t", sqldb.MustSchema(
		sqldb.Column{Name: "d", Type: sqldb.TypeString},
		sqldb.Column{Name: "m1", Type: sqldb.TypeFloat},
		sqldb.Column{Name: "m2", Type: sqldb.TypeFloat},
	), sqldb.LayoutCol)
	for i := 0; i < 100; i++ {
		err := tab.Append([][]sqldb.Value{{
			sqldb.Str(fmt.Sprintf("g%d", i%4)), sqldb.Float(float64(i)), sqldb.Float(float64(i * 2)),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	e := newTestEngine(db)
	res, err := e.Recommend(context.Background(), Request{
		Table:       "t",
		TargetWhere: "d = 'g0' OR d = 'g1'",
		Dimensions:  []string{"d"},
		Measures:    []string{"m1", "m2"},
	}, Options{Strategy: NoOpt, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.QueriesExecuted != 4 { // 2 views × 2 queries
		t.Errorf("NO_OPT queries = %d, want 4", res.Metrics.QueriesExecuted)
	}
}

func TestResultRankingIsSorted(t *testing.T) {
	e, req := buildCensus(t, sqldb.LayoutCol, 3000)
	res, err := e.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 40, KeepAllViews: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.AllViews, func(a, b int) bool {
		return res.AllViews[a].Utility > res.AllViews[b].Utility
	}) {
		t.Error("AllViews must be sorted by utility descending")
	}
	for i := 1; i < len(res.Recommendations); i++ {
		if res.Recommendations[i].Utility > res.Recommendations[i-1].Utility {
			t.Error("Recommendations must be sorted by utility descending")
		}
	}
}

func TestStrategyAndSchemeStrings(t *testing.T) {
	if NoOpt.String() != "NO_OPT" || CombEarly.String() != "COMB_EARLY" {
		t.Error("Strategy.String wrong")
	}
	if CIPruning.String() != "CI" || MABPruning.String() != "MAB" || RandomPruning.String() != "RANDOM" || NoPruning.String() != "NO_PRU" {
		t.Error("PruningScheme.String wrong")
	}
	if RefAll.String() != "ALL" || RefComplement.String() != "COMPLEMENT" || RefCustom.String() != "CUSTOM" {
		t.Error("RefMode.String wrong")
	}
}
