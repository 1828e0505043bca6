package sqldb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// planFor compiles a shard plan against a canonical test schema.
func planFor(t *testing.T, sql string) *ShardPlan {
	t.Helper()
	return planOver(t, sql, MustSchema(
		Column{Name: "d", Type: TypeString},
		Column{Name: "k", Type: TypeInt},
		Column{Name: "m", Type: TypeFloat},
	))
}

// planOver compiles a shard plan against schema.
func planOver(t *testing.T, sql string, schema *Schema) *ShardPlan {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardPlan(stmt, schema)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestShardPlanChildSQL(t *testing.T) {
	cases := []struct {
		sql     string
		want    []string // substrings the child SQL must contain
		wantNot []string
	}{
		{
			// AVG decomposes into SUM+COUNT; HAVING/ORDER BY/LIMIT stay
			// out of the child statement.
			sql:     "SELECT d, AVG(m) FROM t GROUP BY d HAVING COUNT(*) > 1 ORDER BY 2 LIMIT 5",
			want:    []string{"SUM(m)", "COUNT(m)", "COUNT(*)", "GROUP BY d"},
			wantNot: []string{"AVG", "HAVING", "ORDER BY", "LIMIT"},
		},
		{
			// COUNT(DISTINCT k) adds k to the child GROUP BY instead of a
			// partial count.
			sql:  "SELECT d, COUNT(DISTINCT k) FROM t GROUP BY d",
			want: []string{"GROUP BY d, k"},
		},
		{
			// A repeated aggregate is computed once per shard.
			sql:  "SELECT d, SUM(m), SUM(m) FROM t GROUP BY d",
			want: []string{"SELECT d, SUM(m), COUNT(m) FROM t"},
		},
		{
			// Simple projections keep the filter and ship an extra column
			// per non-output ORDER BY key.
			sql:     "SELECT d FROM t WHERE k > 1 ORDER BY LOWER(d) DESC LIMIT 2",
			want:    []string{"SELECT d, LOWER(d) FROM t WHERE", "(k > 1)"},
			wantNot: []string{"ORDER BY", "LIMIT"},
		},
	}
	for _, tc := range cases {
		sp := planFor(t, tc.sql)
		child := sp.ChildSQL()
		for _, w := range tc.want {
			if !strings.Contains(child, w) {
				t.Errorf("%s:\n child %q\n missing %q", tc.sql, child, w)
			}
		}
		for _, w := range tc.wantNot {
			if strings.Contains(child, w) {
				t.Errorf("%s:\n child %q\n must not contain %q", tc.sql, child, w)
			}
		}
	}
}

func TestShardPlanMergeDecomposition(t *testing.T) {
	// SELECT d, AVG(m), COUNT(DISTINCT k) GROUP BY d — child rows carry
	// [d, k, SUM(m), COUNT(m)], sub-grouped by (d, k).
	sp := planFor(t, "SELECT d, AVG(m), COUNT(DISTINCT k) FROM t GROUP BY d")
	parts := []ShardPart{
		{Groups: 3, Rows: [][]Value{
			{Str("a"), Int(1), Float(2), Int(2)},
			{Str("a"), Int(2), Float(4), Int(1)},
			{Str("b"), Int(1), Null(), Int(0)}, // all-NULL measure sub-group
		}},
		{Groups: 2, Rows: [][]Value{
			{Str("a"), Int(1), Float(6), Int(1)}, // k=1 repeats across shards: distinct must not double-count
			{Str("b"), Int(3), Float(10), Int(2)},
		}},
	}
	res, err := sp.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("merged rows = %+v", res.Rows)
	}
	// a: AVG = (2+4+6)/(2+1+1) = 3; distinct k = {1,2} = 2.
	if got := res.Rows[0]; got[0].S != "a" || got[1].F != 3 || got[2].I != 2 {
		t.Errorf("group a = %v", got)
	}
	// b: AVG = 10/2 = 5 (the NULL partial sum contributes nothing);
	// distinct k = {1,3} = 2.
	if got := res.Rows[1]; got[0].S != "b" || got[1].F != 5 || got[2].I != 2 {
		t.Errorf("group b = %v", got)
	}
	if res.Stats.Groups != 2 {
		t.Errorf("Groups = %d, want 2", res.Stats.Groups)
	}
}

func TestShardPlanMergeGlobalGroups(t *testing.T) {
	// Global aggregation: the merged Groups counter must distinguish "no
	// shard matched a row" (0) from "some shard did" (1), even though
	// children emit a synthetic row either way.
	sp := planFor(t, "SELECT COUNT(*) FROM t WHERE k > 100")
	res, err := sp.Merge([]ShardPart{
		{Groups: 0, Rows: [][]Value{{Int(0)}}},
		{Groups: 0, Rows: [][]Value{{Int(0)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Groups != 0 || len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Errorf("all-filtered merge: groups=%d rows=%v", res.Stats.Groups, res.Rows)
	}
	res, err = sp.Merge([]ShardPart{
		{Groups: 1, Rows: [][]Value{{Int(7)}}},
		{Groups: 0, Rows: [][]Value{{Int(0)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Groups != 1 || res.Rows[0][0].I != 7 {
		t.Errorf("partial-match merge: groups=%d rows=%v", res.Stats.Groups, res.Rows)
	}
}

func TestShardPlanMergeRejectsBadWidth(t *testing.T) {
	sp := planFor(t, "SELECT d, COUNT(*) FROM t GROUP BY d")
	if _, err := sp.Merge([]ShardPart{{Rows: [][]Value{{Str("a")}}}}); err == nil {
		t.Error("narrow child row should be rejected")
	}
}

// TestShardPlanUnion pins a compound's decomposition: the child runs
// the UNION ALL of the branch partials, each led by its branch index,
// keeping its aggregate-free items in place and padded with typed
// numeric NULLs to the widest; the merge routes rows by that index,
// merges each branch on its own keys, and a global-aggregation branch
// counts a group only when its presence column says the child matched
// a row.
func TestShardPlanUnion(t *testing.T) {
	sp := planFor(t, "SELECT 0, d, AVG(m) FROM t GROUP BY d UNION ALL SELECT 1, NULL, COUNT(*) FROM t WHERE k > 5")
	want := "SELECT 0, 0, d, SUM(m), COUNT(m) FROM t GROUP BY d UNION ALL SELECT 1, 1, NULL, COUNT(*), CASE WHEN false THEN 0 END FROM t WHERE (k > 5)"
	if got := sp.ChildSQL(); got != want {
		t.Fatalf("child SQL\n got %s\nwant %s", got, want)
	}
	// Shard 0 matched nothing in branch 1; shard 1 matched 3 rows. Group
	// "a" appears in both shards and merges; the NULL key in branch 0 is
	// a real NULL group.
	res, err := sp.Merge([]ShardPart{
		{Rows: [][]Value{
			{Int(0), Int(0), Str("a"), Float(2), Int(1)},
			{Int(1), Int(1), Null(), Int(0), Null()},
			{Int(0), Int(0), Null(), Float(4), Int(2)},
		}},
		{Rows: [][]Value{
			{Int(1), Int(1), Null(), Int(3), Null()},
			{Int(0), Int(0), Str("a"), Float(6), Int(1)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := [][]Value{
		{Int(0), Str("a"), Float(4)},
		{Int(0), Null(), Float(2)},
		{Int(1), Null(), Int(3)},
	}
	if len(res.Rows) != len(wantRows) || res.Stats.Groups != 3 {
		t.Fatalf("merged %v (groups %d), want %v", res.Rows, res.Stats.Groups, wantRows)
	}
	for i := range wantRows {
		for j := range wantRows[i] {
			if res.Rows[i][j].Compare(wantRows[i][j]) != 0 || res.Rows[i][j].Kind != wantRows[i][j].Kind {
				t.Errorf("row %d col %d: %v, want %v", i, j, res.Rows[i][j], wantRows[i][j])
			}
		}
	}
	// A global branch no shard matched still emits its one row, and
	// counts no group.
	res, err = sp.Merge([]ShardPart{{Rows: [][]Value{{Int(1), Int(1), Null(), Int(0), Null()}}}})
	if err != nil || len(res.Rows) != 1 || res.Stats.Groups != 0 {
		t.Fatalf("unmatched global branch: %v rows %v groups %d", err, res.Rows, res.Stats.Groups)
	}
	for _, bad := range [][]Value{
		{Int(2), Int(2), Null(), Null(), Null()},
		{Str("0"), Int(0), Null(), Null(), Null()},
		{Int(0), Int(0), Str("a"), Float(1)},
	} {
		if _, err := sp.Merge([]ShardPart{{Rows: [][]Value{bad}}}); err == nil {
			t.Errorf("child row %v accepted", bad)
		}
	}
	stmt, err := Parse("SELECT d FROM t UNION ALL SELECT d FROM u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardPlan(stmt, MustSchema(Column{Name: "d", Type: TypeString})); err == nil {
		t.Error("a compound over two tables was decomposed")
	}
}

// shardParts runs sp's child statement over each slice of rows on its
// own column-store table t and returns the partials ShardPlan.Merge
// takes, in slice order.
func shardParts(t *testing.T, sp *ShardPlan, schema *Schema, slices ...[][]Value) []ShardPart {
	t.Helper()
	parts := make([]ShardPart, len(slices))
	for i, rows := range slices {
		db := loadTable(t, schema, rows)
		res, err := db.QueryOpts(sp.ChildSQL(), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = ShardPart{Rows: res.Rows, Groups: res.Stats.Groups}
	}
	return parts
}

// loadTable loads rows into a fresh column-store table t.
func loadTable(t *testing.T, schema *Schema, rows [][]Value) *DB {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateTable("t", schema, LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// sameRows reports whether a and b hold the same rows in the same order,
// numeric cells equal to within 1e-9.
func sameRows(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind != y.Kind {
				return false
			}
			xf, xok := x.AsFloat()
			yf, yok := y.AsFloat()
			if xok != yok || (xok && math.Abs(xf-yf) > 1e-9) || (!xok && x.S != y.S) {
				return false
			}
		}
	}
	return true
}

// TestShardMergeEqualsWholeTable pins the mergeability invariant sharded
// execution depends on: for every aggregate, grouped and global, merging
// the partials of a split of the rows equals running the query over all
// of them.
func TestShardMergeEqualsWholeTable(t *testing.T) {
	schema := MustSchema(Column{Name: "g", Type: TypeInt}, Column{Name: "m", Type: TypeFloat})
	rng := rand.New(rand.NewSource(31))
	for _, agg := range []string{"COUNT(*)", "COUNT(m)", "COUNT(DISTINCT m)", "SUM(m)", "AVG(m)", "MIN(m)", "MAX(m)"} {
		t.Run(agg, func(t *testing.T) {
			for _, sql := range []string{"SELECT " + agg + " FROM t", "SELECT g, " + agg + " FROM t GROUP BY g"} {
				sp := planOver(t, sql, schema)
				for trial := 0; trial < 20; trial++ {
					n := 1 + rng.Intn(40)
					rows := make([][]Value, n)
					for i := range rows {
						rows[i] = []Value{Int(int64(rng.Intn(3))), Float(float64(rng.Intn(10)))}
						if rng.Intn(8) == 0 {
							rows[i][1] = Null()
						}
					}
					cut := rng.Intn(n + 1)
					whole, err := loadTable(t, schema, rows).QueryOpts(sql, ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					merged, err := sp.Merge(shardParts(t, sp, schema, rows[:cut], rows[cut:]))
					if err != nil {
						t.Fatal(err)
					}
					if !sameRows(whole.Rows, merged.Rows) || whole.Stats.Groups != merged.Stats.Groups {
						t.Fatalf("%s, cut %d of %d: merged %v (%d groups), whole table %v (%d groups)",
							sql, cut, n, merged.Rows, merged.Stats.Groups, whole.Rows, whole.Stats.Groups)
					}
				}
			}
		})
	}
}

// TestShardMergeEmptyChildren: a child whose table is empty is the
// identity on either side of the merge, and a merge of empty children
// gives a global aggregate's empty-input row (COUNT 0, MIN and SUM NULL)
// with no group counted.
func TestShardMergeEmptyChildren(t *testing.T) {
	schema := MustSchema(Column{Name: "g", Type: TypeInt}, Column{Name: "m", Type: TypeFloat})
	rows := [][]Value{{Int(1), Float(5)}, {Int(2), Float(2)}, {Int(1), Null()}}
	for _, sql := range []string{
		"SELECT COUNT(*), MIN(m), SUM(m) FROM t",
		"SELECT g, COUNT(*), MIN(m), SUM(m) FROM t GROUP BY g",
	} {
		sp := planOver(t, sql, schema)
		whole, err := loadTable(t, schema, rows).QueryOpts(sql, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range [][2][][]Value{{rows, nil}, {nil, rows}} {
			merged, err := sp.Merge(shardParts(t, sp, schema, split[0], split[1]))
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(whole.Rows, merged.Rows) || merged.Stats.Groups != whole.Stats.Groups {
				t.Errorf("%s: merge with an empty child = %v, whole table %v", sql, merged.Rows, whole.Rows)
			}
		}
	}
	sp := planOver(t, "SELECT COUNT(*), MIN(m), SUM(m) FROM t", schema)
	res, err := sp.Merge(shardParts(t, sp, schema, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() || res.Stats.Groups != 0 {
		t.Errorf("merge of empty children = %v (%d groups), want [0 NULL NULL] (0 groups)", res.Rows, res.Stats.Groups)
	}
}
