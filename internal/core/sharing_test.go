package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
	"seedb/internal/sqldb/difftest"
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
		if q.branches[0].side != sideCombined {
			t.Errorf("expected combined target/ref query, got side %v", q.branches[0].side)
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
	if queries[0].branches[0].side != sideTarget || !strings.Contains(queries[0].sql, "WHERE f = 'x'") {
		t.Errorf("target query wrong: %s", queries[0].sql)
	}
	if queries[1].branches[0].side != sideReference || !strings.Contains(queries[1].sql, "WHERE CASE WHEN f = 'x' THEN 1 ELSE 0 END = 0") {
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
		if q.branches[0].side == sideCombined {
			t.Error("NO_OPT must not combine target and reference")
		}
		if len(q.branches[0].consumers) > 2 { // at most SUM+COUNT for one view
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
	if len(queries[0].branches[0].consumers) != 4 {
		t.Errorf("consumers = %d, want 4", len(queries[0].branches[0].consumers))
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

// TestUnionQuerySQLShape pins GroupByUnion's statement: a branch index,
// one key column per dimension type (a typed NULL in the other
// branches), the flag, then each branch's own aggregates padded with
// numeric typed NULLs to the widest branch, and the consumers' columns
// in that layout.
func TestUnionQuerySQLShape(t *testing.T) {
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:  Options{Strategy: Sharing, GroupBy: GroupByUnion},
		types: map[string]backend.ColumnType{"a": backend.TypeString, "b": backend.TypeInt},
	}
	queries := qb.build(testViews(), allAlive(4))
	if len(queries) != 1 {
		t.Fatalf("got %d statements, want 1", len(queries))
	}
	const flag = "CASE WHEN f = 'x' THEN 1 ELSE 0 END"
	const nullInt, nullText = "CASE WHEN FALSE THEN 0 END", "CASE WHEN FALSE THEN '' END"
	want := "SELECT 0, a, " + nullInt + ", " + flag + " AS __seedb_flag, SUM(m1), COUNT(m1), SUM(m2), COUNT(m2) FROM t GROUP BY a, " + flag +
		" UNION ALL SELECT 1, " + nullText + ", b, " + flag + " AS __seedb_flag, COUNT(m1), MAX(m2), " + nullInt + ", " + nullInt + " FROM t GROUP BY b, " + flag
	q := queries[0]
	if q.sql != want {
		t.Fatalf("SQL:\n got %s\nwant %s", q.sql, want)
	}
	if !q.union || len(q.branches) != 2 || q.width != 8 {
		t.Fatalf("union %v with %d branches, width %d; want 2 branches, width 8", q.union, len(q.branches), q.width)
	}
	for b, br := range q.branches {
		if br.side != sideCombined || br.flagCol != 3 || len(br.dimCols) != 1 || br.dimCols[0] != 1+b {
			t.Errorf("branch %d: %+v", b, br)
		}
		for _, c := range br.consumers {
			if c.dimCol != 1+b || c.col < 4 || c.col > 7 {
				t.Errorf("branch %d consumer %+v outside its columns", b, c)
			}
		}
	}
}

// TestUnionQueryKeyColumnPerType pins that dimensions of one type share
// a key column (a typed store needs one type per column, not one column
// per dimension), and that each placeholder is a NULL of its column's
// type.
func TestUnionQueryKeyColumnPerType(t *testing.T) {
	views := append(testViews(), View{Dimension: "c", Measure: "m1", Agg: AggSum}, View{Dimension: "u", Measure: "m1", Agg: AggSum})
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefAll},
		opts:  Options{Strategy: Sharing, GroupBy: GroupByUnion},
		types: map[string]backend.ColumnType{"a": backend.TypeString, "b": backend.TypeInt, "c": backend.TypeString, "u": backend.TypeBool},
	}
	q := qb.build(views, allAlive(len(views)))[0]
	var leads []string
	for _, sql := range strings.Split(q.sql, " UNION ALL ") {
		leads = append(leads, strings.SplitN(sql, ", CASE WHEN f = 'x'", 2)[0])
	}
	const nullInt, nullText, nullBool = "CASE WHEN FALSE THEN 0 END", "CASE WHEN FALSE THEN '' END", "CASE WHEN FALSE THEN FALSE END"
	want := []string{
		"SELECT 0, a, " + nullInt + ", " + nullBool,
		"SELECT 1, " + nullText + ", b, " + nullBool,
		"SELECT 2, c, " + nullInt + ", " + nullBool,
		"SELECT 3, " + nullText + ", " + nullInt + ", u",
	}
	if fmt.Sprint(leads) != fmt.Sprint(want) {
		t.Fatalf("key columns:\n got %q\nwant %q", leads, want)
	}
	for b, col := range []int{1, 2, 1, 3} {
		if br := q.branches[b]; br.dimCols[0] != col || br.flagCol != 4 || br.consumers[0].dimCol != col {
			t.Errorf("branch %d: %+v, want its dimension in column %d", b, br, col)
		}
	}
}

// TestUnionQuerySplitsAndChunks pins the other statement counts: a
// custom reference gives each dimension a target and a reference branch
// with their own WHERE, and MaxAggregatesPerQuery gives one statement
// per measure chunk, whose branches are the dimensions with that chunk.
func TestUnionQuerySplitsAndChunks(t *testing.T) {
	qb := &queryBuilder{
		table: "t",
		req:   Request{Table: "t", TargetWhere: "f = 'x'", Reference: RefCustom, ReferenceWhere: "g = 'y'"},
		opts:  Options{Strategy: Comb, GroupBy: GroupByUnion},
	}
	queries := qb.build(testViews(), allAlive(4))
	if len(queries) != 1 || len(queries[0].branches) != 4 {
		t.Fatalf("custom reference: %d statements, want 1 with 4 branches", len(queries))
	}
	sides := []querySide{sideTarget, sideReference, sideTarget, sideReference}
	for b, sql := range strings.Split(queries[0].sql, " UNION ALL ") {
		where := []string{"WHERE f = 'x'", "WHERE g = 'y'"}[b%2]
		if queries[0].branches[b].side != sides[b] || !strings.Contains(sql, where) || strings.Contains(sql, flagColumn) {
			t.Errorf("branch %d (%v): %s", b, queries[0].branches[b].side, sql)
		}
	}

	views := append(testViews(), View{Dimension: "a", Measure: "m3", Agg: AggAvg})
	qb.req.Reference = RefAll
	qb.opts.MaxAggregatesPerQuery = 1
	queries = qb.build(views, allAlive(len(views)))
	if len(queries) != 3 {
		t.Fatalf("nagg=1: %d statements, want 3 (dimension a has three measures)", len(queries))
	}
	for c, want := range []int{2, 2, 1} {
		if got := len(queries[c].branches); got != want {
			t.Errorf("statement %d: %d branches, want %d: %s", c, got, want, queries[c].sql)
		}
	}
	// NO_OPT ignores the union and keeps one query per view side.
	qb.opts = Options{Strategy: NoOpt, GroupBy: GroupByUnion}
	if got := len(qb.build(testViews(), allAlive(4))); got != 8 {
		t.Errorf("NO_OPT under GroupByUnion: %d queries, want 8", got)
	}
}

// sqlRecorder records the SQL of every Exec it forwards.
type sqlRecorder struct {
	backend.Backend
	mu   sync.Mutex
	sqls []string
}

func (b *sqlRecorder) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	b.mu.Lock()
	b.sqls = append(b.sqls, query)
	b.mu.Unlock()
	return b.Backend.Exec(ctx, query, opts)
}

// TestUnionStatementsTypeOnTypedStores: every UNION ALL statement a
// column-store Recommend sends — combined, custom-reference, pruned
// phases whose branches carry uneven aggregate lists, chunked — and the
// shard child the router derives from it give each column one type in
// every branch, with no untyped NULL, as a typed SQL store requires.
func TestUnionStatementsTypeOnTypedStores(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.BuildSynth(db, dataset.TrafficSpec().WithRows(2000), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("traffic")
	schema := tbl.Schema()
	rec := &sqlRecorder{Backend: backend.NewEmbedded(db)}
	e := NewEngine(rec)
	target := Request{Table: "traffic", TargetWhere: "plan = 'pro'", Aggs: []AggFunc{AggAvg, AggSum, AggCount, AggMax}}
	custom := target
	custom.Reference, custom.ReferenceWhere = RefCustom, "region = 'emea'"
	for _, run := range []struct {
		req  Request
		opts Options
	}{
		{target, Options{Strategy: Sharing, K: 3}},
		{target, Options{Strategy: Comb, Pruning: CIPruning, K: 3, Phases: 5}},
		{target, Options{Strategy: Comb, Pruning: MABPruning, K: 3, Phases: 5, MaxAggregatesPerQuery: 2}},
		{custom, Options{Strategy: Comb, Pruning: CIPruning, K: 3, Phases: 5}},
	} {
		if _, err := e.Recommend(context.Background(), run.req, run.opts); err != nil {
			t.Fatal(err)
		}
	}
	unions := 0
	for _, sql := range rec.sqls {
		stmt, err := sqldb.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(stmt.UnionAll) == 0 {
			continue
		}
		unions++
		if err := difftest.CheckTypedUnion(stmt, schema); err != nil {
			t.Fatalf("%v:\n%s", err, sql)
		}
		sp, err := sqldb.NewShardPlan(stmt, schema)
		if err != nil {
			t.Fatal(err)
		}
		child, err := sqldb.Parse(sp.ChildSQL())
		if err != nil {
			t.Fatal(err)
		}
		if err := difftest.CheckTypedUnion(child, schema); err != nil {
			t.Fatalf("shard child: %v:\n%s", err, sp.ChildSQL())
		}
	}
	if unions < 10 {
		t.Fatalf("%d UNION ALL statements of %d, want the column-store plan's", unions, len(rec.sqls))
	}
}

// badRowBackend rewrites the first result row of every Exec.
type badRowBackend struct {
	backend.Backend
	rewrite func(row []backend.Value) []backend.Value
}

func (b *badRowBackend) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	rows, stats, err := b.Backend.Exec(ctx, query, opts)
	if err == nil && len(rows.Rows) > 0 {
		rows.Rows[0] = b.rewrite(rows.Rows[0])
	}
	return rows, stats, err
}

// TestUnionRejectsBadRows: a result row whose branch index is not an
// integer naming a branch, or whose width is not the statement's, fails
// the Recommend instead of folding into another branch's views or
// panicking.
func TestUnionRejectsBadRows(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.BuildSynth(db, dataset.TrafficSpec().WithRows(500), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	req := Request{Table: "traffic", TargetWhere: "plan = 'pro'"}
	lead := func(v backend.Value) func([]backend.Value) []backend.Value {
		return func(row []backend.Value) []backend.Value { row[0] = v; return row }
	}
	for name, rewrite := range map[string]func([]backend.Value) []backend.Value{
		"string index":       lead(sqldb.Str("1")),
		"negative index":     lead(sqldb.Int(-1)),
		"index out of range": lead(sqldb.Int(1000)),
		"float index":        lead(sqldb.Float(1)),
		"short row":          func(row []backend.Value) []backend.Value { return row[:len(row)-1] },
		"long row":           func(row []backend.Value) []backend.Value { return append(row, sqldb.Int(0)) },
	} {
		e := NewEngine(&badRowBackend{Backend: backend.NewEmbedded(db), rewrite: rewrite})
		_, err := e.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 3})
		if err == nil || !strings.Contains(err.Error(), "result row has") {
			t.Errorf("%s: err %v, want a result row error", name, err)
		}
	}
}
