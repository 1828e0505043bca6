package core

import (
	"sort"
	"strings"
	"testing"
)

// testViews builds a small view set over two dims and two measures.
func testViews() []View {
	return []View{
		{Dimension: "a", Measure: "m1", Agg: AggAvg},
		{Dimension: "a", Measure: "m2", Agg: AggSum},
		{Dimension: "b", Measure: "m1", Agg: AggCount},
		{Dimension: "b", Measure: "m2", Agg: AggMax},
	}
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

func TestSharedQuerySQLShapeCombined(t *testing.T) {
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:  Options{Strategy: Sharing, GroupBy: GroupBySingle},
	}
	queries := qb.build(testViews(), allAlive(4))
	if len(queries) != 2 { // one per dimension
		t.Fatalf("got %d queries, want 2: %+v", len(queries), queries)
	}
	var sqls []string
	for _, q := range queries {
		sqls = append(sqls, q.sql)
		if q.side != sideCombined {
			t.Errorf("expected combined target/ref query, got side %v", q.side)
		}
	}
	sort.Strings(sqls)
	// Dimension a: AVG(m1) → SUM+COUNT; SUM(m2) → SUM+COUNT.
	wantA := "SELECT a, CASE WHEN f = 'x' THEN 1 ELSE 0 END AS __seedb_flag, SUM(m1), COUNT(m1), SUM(m2), COUNT(m2) FROM t GROUP BY a, CASE WHEN f = 'x' THEN 1 ELSE 0 END"
	if sqls[0] != wantA {
		t.Errorf("dim-a SQL:\n got %s\nwant %s", sqls[0], wantA)
	}
	// Dimension b: COUNT(m1); MAX(m2).
	wantB := "SELECT b, CASE WHEN f = 'x' THEN 1 ELSE 0 END AS __seedb_flag, COUNT(m1), MAX(m2) FROM t GROUP BY b, CASE WHEN f = 'x' THEN 1 ELSE 0 END"
	if sqls[1] != wantB {
		t.Errorf("dim-b SQL:\n got %s\nwant %s", sqls[1], wantB)
	}
}

// TestSharedQuerySQLShapeSeparate pins NO_OPT's separate target and
// complement queries: the complement takes exactly the rows the combined
// query's flag puts on the reference side, NULL-predicate rows included.
func TestSharedQuerySQLShapeSeparate(t *testing.T) {
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefComplement},
		opts:  Options{Strategy: NoOpt},
	}
	queries := qb.build(testViews()[:1], allAlive(1))
	if len(queries) != 2 {
		t.Fatalf("got %d queries, want target + reference", len(queries))
	}
	if queries[0].side != sideTarget || !strings.Contains(queries[0].sql, "WHERE f = 'x'") {
		t.Errorf("target query wrong: %s", queries[0].sql)
	}
	if queries[1].side != sideReference || !strings.Contains(queries[1].sql, "WHERE CASE WHEN f = 'x' THEN 1 ELSE 0 END = 0") {
		t.Errorf("complement reference query wrong: %s", queries[1].sql)
	}
}

func TestSharedQuerySQLCustomReference(t *testing.T) {
	qb := &queryBuilder{
		table: "t",
		req: Request{Table: "t", TargetWhere: "f = 'x'",
			Reference: RefCustom, ReferenceWhere: "g = 'y'"},
		opts: Options{Strategy: Sharing, GroupBy: GroupBySingle},
	}
	queries := qb.build(testViews()[:1], allAlive(1))
	// Custom references can never combine (target and reference rows may
	// overlap arbitrarily).
	if len(queries) != 2 {
		t.Fatalf("got %d queries, want 2", len(queries))
	}
	if !strings.Contains(queries[1].sql, "WHERE g = 'y'") {
		t.Errorf("custom reference not applied: %s", queries[1].sql)
	}
}

func TestNoOptNeverShares(t *testing.T) {
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:  Options{Strategy: NoOpt},
	}
	queries := qb.build(testViews(), allAlive(4))
	if len(queries) != 8 { // 2 per view
		t.Fatalf("NO_OPT got %d queries, want 8", len(queries))
	}
	for _, q := range queries {
		if q.side == sideCombined {
			t.Error("NO_OPT must not combine target and reference")
		}
		if len(q.consumers) > 2 { // at most SUM+COUNT for one view
			t.Errorf("NO_OPT query serves multiple views: %s", q.sql)
		}
	}
}

func TestNaggCapSplitsQueries(t *testing.T) {
	views := []View{
		{Dimension: "a", Measure: "m1", Agg: AggAvg},
		{Dimension: "a", Measure: "m2", Agg: AggAvg},
		{Dimension: "a", Measure: "m3", Agg: AggAvg},
	}
	build := func(nagg int) int {
		qb := &queryBuilder{
			table: "t",
			req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
			opts:  Options{Strategy: Sharing, GroupBy: GroupBySingle, MaxAggregatesPerQuery: nagg},
		}
		return len(qb.build(views, allAlive(3)))
	}
	if got := build(0); got != 1 {
		t.Errorf("unlimited nagg: %d queries, want 1", got)
	}
	if got := build(1); got != 3 {
		t.Errorf("nagg=1: %d queries, want 3", got)
	}
	if got := build(2); got != 2 {
		t.Errorf("nagg=2: %d queries, want 2", got)
	}
}

func TestAggExprDeduplication(t *testing.T) {
	// AVG and SUM on the same measure share the SUM and COUNT columns.
	views := []View{
		{Dimension: "a", Measure: "m", Agg: AggAvg},
		{Dimension: "a", Measure: "m", Agg: AggSum},
	}
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:  Options{Strategy: Sharing, GroupBy: GroupBySingle},
	}
	queries := qb.build(views, allAlive(2))
	if len(queries) != 1 {
		t.Fatalf("got %d queries, want 1", len(queries))
	}
	if n := strings.Count(queries[0].sql, "SUM(m)"); n != 1 {
		t.Errorf("SUM(m) appears %d times, want 1 (dedup): %s", n, queries[0].sql)
	}
	// Both views consume, via 4 consumer entries over 2 columns.
	if len(queries[0].consumers) != 4 {
		t.Errorf("consumers = %d, want 4", len(queries[0].consumers))
	}
}

func TestDeadViewsExcludedFromQueries(t *testing.T) {
	views := testViews()
	alive := allAlive(4)
	alive[2], alive[3] = false, false // kill dimension b's views
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:  Options{Strategy: Sharing, GroupBy: GroupBySingle},
	}
	queries := qb.build(views, alive)
	if len(queries) != 1 {
		t.Fatalf("got %d queries, want 1 (dimension b pruned away)", len(queries))
	}
	if strings.Contains(queries[0].sql, " b,") || strings.HasPrefix(queries[0].sql, "SELECT b") {
		t.Errorf("pruned dimension still queried: %s", queries[0].sql)
	}
}

func TestBinPackBudgetHalvedForFlag(t *testing.T) {
	// The combined-query flag doubles worst-case groups, so the packer
	// must see half the budget. With budget 8 and dims of cardinality 3
	// and 2 (product 6 > 8/2=4), they must not share a query.
	views := []View{
		{Dimension: "a", Measure: "m1", Agg: AggCount},
		{Dimension: "b", Measure: "m1", Agg: AggCount},
	}
	qb := &queryBuilder{
		table:    "t",
		req:      Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:     Options{Strategy: Sharing, GroupBy: GroupByBinPack, MemoryBudget: 8},
		distinct: map[string]int{"a": 3, "b": 2},
	}
	queries := qb.build(views, allAlive(2))
	if len(queries) != 2 {
		t.Errorf("flag-halved budget should split dims: got %d queries", len(queries))
	}
	// A custom reference cannot combine, so the full budget applies and
	// they fit together (3·2 = 6 ≤ 8) → one dim-group → 2 queries
	// (target + reference).
	qb.req.Reference, qb.req.ReferenceWhere = RefCustom, "g = 'y'"
	queries = qb.build(views, allAlive(2))
	if len(queries) != 2 {
		t.Fatalf("separate t/r with shared dims: got %d queries, want 2", len(queries))
	}
	if !strings.Contains(queries[0].sql, "a, b") {
		t.Errorf("dims should pack together under full budget: %s", queries[0].sql)
	}
}
