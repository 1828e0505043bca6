package core

import (
	"math"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// TestFoldPartsMatchesShardMerge holds foldParts to sqldb.ShardPlan.Merge
// on one combined statement whose partials cover every edge the merge
// decides: a child whose SUM is NULL (its COUNT 0), a child whose SUM is
// set while its COUNT is 0, inexact sums split three ways, MIN and MAX
// with NaN and -0.0 split across children in both orders, and FLOAT
// group keys that only AppendKey tells apart (+0/-0, NaN). Every merged
// cell must carry the merge's bits, and the groups its order.
func TestFoldPartsMatchesShardMerge(t *testing.T) {
	views := []View{
		{Dimension: "d", Measure: "m", Agg: AggSum},
		{Dimension: "d", Measure: "m", Agg: AggMin},
		{Dimension: "d", Measure: "m", Agg: AggMax},
		{Dimension: "d", Measure: "m", Agg: AggCount},
	}
	req := Request{Table: "t", TargetWhere: "x = 1"}
	qb := &queryBuilder{table: "t", req: req, opts: Options{Strategy: Comb, GroupBy: GroupBySingle}}
	queries := qb.build(views, []bool{true, true, true, true})
	if len(queries) != 1 {
		t.Fatalf("built %d statements, want 1", len(queries))
	}
	q := queries[0]

	stmt, err := sqldb.Parse(q.sql)
	if err != nil {
		t.Fatal(err)
	}
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "d", Type: sqldb.TypeFloat},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
		sqldb.Column{Name: "x", Type: sqldb.TypeInt},
	)
	sp, err := sqldb.NewShardPlan(stmt, schema)
	if err != nil {
		t.Fatal(err)
	}
	// The children run the statement as written: the merge's partial
	// statement is the statement itself, so both read the same columns.
	if sp.ChildSQL() != stmt.String() {
		t.Fatalf("partial statement differs from the statement:\n%s\n%s", sp.ChildSQL(), stmt.String())
	}

	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	f, i, null := sqldb.Float, sqldb.Int, sqldb.Null()
	// Columns: d, flag, SUM(m), COUNT(m), MIN(m), MAX(m).
	row := func(d float64, flag int64, sum sqldb.Value, cnt int64, lo, hi sqldb.Value) []sqldb.Value {
		return []sqldb.Value{f(d), i(flag), sum, i(cnt), lo, hi}
	}
	parts := [][][]sqldb.Value{
		{
			row(1.5, 1, null, 0, null, null),         // NULL SUM, COUNT 0
			row(0, 0, f(0.1), 1, f(negZero), f(nan)), // -0.0 MIN, NaN MAX first
			row(negZero, 0, f(0.7), 2, f(0), f(3)),   // a group of its own
			row(nan, 1, f(0.3), 1, f(2), f(2)),
		},
		{
			row(0, 0, f(0.2), 0, f(0), f(5)),   // SUM set, COUNT 0
			row(1.5, 1, f(0.6), 0, f(1), f(1)), // the group's only sum counts nothing
			row(nan, 1, f(0.4), 2, f(nan), f(negZero)),
			row(2.5, 0, null, 0, null, null),
		},
		{
			row(0, 0, f(0.3), 2, f(0), f(nan)),
			row(negZero, 0, f(0.1), 1, f(negZero), f(0)),
			row(nan, 1, f(0.5), 1, f(0), f(0)),
		},
	}
	res := &backend.Rows{}
	shardParts := make([]sqldb.ShardPart, len(parts))
	for pi, rows := range parts {
		res.Rows = append(res.Rows, rows...)
		res.Parts = append(res.Parts, len(res.Rows))
		shardParts[pi] = sqldb.ShardPart{Rows: rows, Groups: len(rows)}
	}
	if err := q.check(res.Rows); err != nil {
		t.Fatal(err)
	}
	want, err := sp.Merge(shardParts)
	if err != nil {
		t.Fatal(err)
	}
	got := q.foldParts(res)
	if len(got) != len(want.Rows) || want.Stats.Groups != len(got) {
		t.Fatalf("%d merged rows, merge has %d (%d groups)", len(got), len(want.Rows), want.Stats.Groups)
	}
	for r := range got {
		for c := range got[r] {
			if !sameBits(got[r][c], want.Rows[r][c]) {
				t.Errorf("row %d column %d = %#v, merge has %#v", r, c, got[r][c], want.Rows[r][c])
			}
		}
	}
	// The edges the fixture is for, spelled out.
	if g := got[0]; !g[2].IsNull() || g[3].I != 0 {
		t.Errorf("group 1.5: SUM %v COUNT %v, want NULL and 0", g[2], g[3])
	}
	sum := 0.0
	for _, x := range []float64{0.1, 0.2, 0.3} {
		sum += x
	}
	if g := got[1]; g[2].F != sum || !sameBits(g[4], f(negZero)) || !math.IsNaN(g[5].F) {
		t.Errorf("group 0: SUM %v MIN %#v MAX %v", g[2], g[4], g[5])
	}
}

// sameBits reports whether two values are the same bits, NaN payloads
// and signed zeros included.
func sameBits(a, b sqldb.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}
