package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// testSchema is the schema used across executor tests: a tiny census-like
// table with one string dimension, one int dimension and two measures.
func testSchema() *Schema {
	return MustSchema(
		Column{Name: "sex", Type: TypeString},
		Column{Name: "region", Type: TypeInt},
		Column{Name: "income", Type: TypeFloat},
		Column{Name: "hours", Type: TypeInt},
	)
}

// testRows is a small fixed dataset with known aggregates.
func testRows() [][]Value {
	return [][]Value{
		{Str("F"), Int(1), Float(10), Int(40)},
		{Str("F"), Int(2), Float(20), Int(35)},
		{Str("M"), Int(1), Float(30), Int(45)},
		{Str("M"), Int(2), Float(40), Int(50)},
		{Str("M"), Int(1), Float(50), Int(20)},
		{Str("F"), Int(1), Null(), Int(30)},
	}
}

// buildDB loads the fixed dataset into a table of the given layout.
func buildDB(t *testing.T, layout Layout) *DB {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateTable("census", testSchema(), layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows() {
		if err := tab.Append([][]Value{r}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// bothLayouts runs a subtest against a DB of each layout.
func bothLayouts(t *testing.T, fn func(t *testing.T, db *DB)) {
	t.Helper()
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		layout := layout
		t.Run(layout.String(), func(t *testing.T) {
			fn(t, buildDB(t, layout))
		})
	}
}

func queryRows(t *testing.T, db *DB, sql string) [][]Value {
	t.Helper()
	res, err := db.QueryOpts(sql, ExecOptions{})
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res.Rows
}

func TestSimpleProjection(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT sex, income FROM census")
		if len(rows) != 6 {
			t.Fatalf("got %d rows, want 6", len(rows))
		}
		if rows[0][0].S != "F" || rows[0][1].F != 10 {
			t.Errorf("row 0 = %v", rows[0])
		}
	})
}

func TestSelectStarExpansion(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		res, err := db.QueryOpts("SELECT * FROM census LIMIT 2", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"sex", "region", "income", "hours"}
		if !reflect.DeepEqual(res.Columns, want) {
			t.Errorf("columns = %v, want %v", res.Columns, want)
		}
		if len(res.Rows) != 2 {
			t.Errorf("rows = %d, want 2", len(res.Rows))
		}
	})
}

func TestWhereFilter(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT hours FROM census WHERE sex = 'M' AND region = 1")
		if len(rows) != 2 {
			t.Fatalf("got %d rows, want 2", len(rows))
		}
	})
}

func TestWhereNullNeverPasses(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		// income = NULL on one row; comparisons with NULL are NULL → filtered.
		rows := queryRows(t, db, "SELECT sex FROM census WHERE income > 0")
		if len(rows) != 5 {
			t.Fatalf("got %d rows, want 5 (NULL row excluded)", len(rows))
		}
		rows = queryRows(t, db, "SELECT sex FROM census WHERE income IS NULL")
		if len(rows) != 1 {
			t.Fatalf("IS NULL got %d rows, want 1", len(rows))
		}
	})
}

func TestGroupByAverages(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT sex, AVG(income) FROM census GROUP BY sex ORDER BY sex")
		if len(rows) != 2 {
			t.Fatalf("got %d groups, want 2", len(rows))
		}
		// F: (10+20)/2 = 15 (NULL skipped); M: (30+40+50)/3 = 40.
		if rows[0][0].S != "F" || rows[0][1].F != 15 {
			t.Errorf("F avg = %v", rows[0])
		}
		if rows[1][0].S != "M" || rows[1][1].F != 40 {
			t.Errorf("M avg = %v", rows[1])
		}
	})
}

func TestGroupByMultipleAggregates(t *testing.T) {
	// The "Combine Multiple Aggregates" sharing optimization relies on
	// many aggregates per query returning correct independent results.
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, `SELECT sex, COUNT(*), SUM(income), MIN(hours), MAX(hours), AVG(hours)
			FROM census GROUP BY sex ORDER BY sex`)
		f := rows[0]
		if f[1].I != 3 || f[2].F != 30 || f[3].I != 30 || f[4].I != 40 || f[5].F != 35 {
			t.Errorf("F row = %v", f)
		}
		m := rows[1]
		if m[1].I != 3 || m[2].F != 120 || m[3].I != 20 || m[4].I != 50 {
			t.Errorf("M row = %v", m)
		}
	})
}

func TestGlobalAggregateNoGroups(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT COUNT(*), AVG(income) FROM census")
		if len(rows) != 1 || rows[0][0].I != 6 || rows[0][1].F != 30 {
			t.Errorf("global agg = %v", rows)
		}
	})
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT COUNT(*), SUM(income), MIN(hours) FROM census WHERE region = 99")
		if len(rows) != 1 {
			t.Fatalf("global aggregate over empty input must emit one row, got %d", len(rows))
		}
		if rows[0][0].I != 0 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
			t.Errorf("empty agg = %v, want [0 NULL NULL]", rows[0])
		}
	})
}

func TestGroupByCaseExpression(t *testing.T) {
	// This is the combined target/reference rewrite from Section 4.1.
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, `SELECT sex, CASE WHEN region = 1 THEN 1 ELSE 0 END AS grp, AVG(income)
			FROM census GROUP BY sex, CASE WHEN region = 1 THEN 1 ELSE 0 END ORDER BY sex, grp`)
		if len(rows) != 4 {
			t.Fatalf("got %d groups, want 4: %v", len(rows), rows)
		}
		// F/grp=0: avg 20; F/grp=1: avg 10; M/grp=0: 40; M/grp=1: 40.
		checks := []struct {
			sex string
			grp int64
			avg float64
		}{
			{"F", 0, 20}, {"F", 1, 10}, {"M", 0, 40}, {"M", 1, 40},
		}
		for i, c := range checks {
			if rows[i][0].S != c.sex || rows[i][1].I != c.grp || rows[i][2].F != c.avg {
				t.Errorf("row %d = %v, want %+v", i, rows[i], c)
			}
		}
	})
}

// TestGroupedConstantOutputs: a grouped output that reads no column —
// a literal, a typed NULL placeholder, an expression over literals — is
// evaluated once and copied into every group's row, next to outputs
// that read keys and aggregates.
func TestGroupedConstantOutputs(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, `SELECT 7, sex, CASE WHEN FALSE THEN '' END, 1 + 2 * 3, UPPER('x') || sex, COUNT(*) - 1
			FROM census GROUP BY sex ORDER BY sex`)
		want := [][]Value{
			{Int(7), Str("F"), Null(), Int(7), Str("XF"), Int(2)},
			{Int(7), Str("M"), Null(), Int(7), Str("XM"), Int(2)},
		}
		if len(rows) != len(want) {
			t.Fatalf("got %v, want %v", rows, want)
		}
		for i := range want {
			for j := range want[i] {
				if rows[i][j].Kind != want[i][j].Kind || rows[i][j].Compare(want[i][j]) != 0 {
					t.Errorf("row %d col %d: %v, want %v", i, j, rows[i][j], want[i][j])
				}
			}
		}
	})
}

func TestCountDistinct(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT COUNT(DISTINCT region), COUNT(DISTINCT sex) FROM census")
		if rows[0][0].I != 2 || rows[0][1].I != 2 {
			t.Errorf("distinct counts = %v", rows[0])
		}
	})
}

func TestOrderByDescAndLimit(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT hours FROM census ORDER BY hours DESC LIMIT 3")
		want := []int64{50, 45, 40}
		for i, w := range want {
			if rows[i][0].I != w {
				t.Errorf("row %d = %v, want %d", i, rows[i][0], w)
			}
		}
	})
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		r1 := queryRows(t, db, "SELECT sex, SUM(hours) AS total FROM census GROUP BY sex ORDER BY total DESC")
		r2 := queryRows(t, db, "SELECT sex, SUM(hours) AS total FROM census GROUP BY sex ORDER BY 2 DESC")
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("alias vs ordinal ordering differ: %v vs %v", r1, r2)
		}
		if r1[0][0].S != "M" {
			t.Errorf("M has more hours, got %v first", r1[0])
		}
	})
}

func TestOrderByNonSelectedExpression(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT sex FROM census WHERE income IS NOT NULL ORDER BY income DESC LIMIT 1")
		if rows[0][0].S != "M" {
			t.Errorf("top earner sex = %v, want M", rows[0][0])
		}
		// Order key must not leak into output.
		if len(rows[0]) != 1 {
			t.Errorf("row width = %d, want 1", len(rows[0]))
		}
	})
}

func TestRangeScanPartitions(t *testing.T) {
	// Partitioned execution: the union of partition results must equal
	// the full-scan result. This is the primitive behind phased execution.
	bothLayouts(t, func(t *testing.T, db *DB) {
		full, err := db.QueryOpts("SELECT sex, COUNT(*) FROM census GROUP BY sex", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int64{}
		for _, lohi := range [][2]int{{0, 2}, {2, 4}, {4, 6}} {
			res, err := db.QueryOpts("SELECT sex, COUNT(*) FROM census GROUP BY sex", ExecOptions{Lo: lohi[0], Hi: lohi[1]})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				counts[r[0].S] += r[1].I
			}
		}
		for _, r := range full.Rows {
			if counts[r[0].S] != r[1].I {
				t.Errorf("partition union %s = %d, full = %d", r[0].S, counts[r[0].S], r[1].I)
			}
		}
	})
}

func TestRangeScanClamping(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		res, err := db.QueryOpts("SELECT COUNT(*) FROM census", ExecOptions{Lo: 4, Hi: 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 2 {
			t.Errorf("clamped range count = %v, want 2", res.Rows[0][0])
		}
		res, err = db.QueryOpts("SELECT COUNT(*) FROM census", ExecOptions{Lo: -5, Hi: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 2 {
			t.Errorf("negative-lo count = %v, want 2", res.Rows[0][0])
		}
	})
}

func TestExecStats(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		res, err := db.QueryOpts("SELECT sex, region, COUNT(*) FROM census GROUP BY sex, region", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RowsScanned != 6 {
			t.Errorf("RowsScanned = %d, want 6", res.Stats.RowsScanned)
		}
		if res.Stats.Groups != 4 {
			t.Errorf("Groups = %d, want 4", res.Stats.Groups)
		}
	})
}

func TestArithmeticAndScalarFunctions(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT hours * 2 + 1, ABS(0 - hours), UPPER(sex), LENGTH(sex) FROM census LIMIT 1")
		r := rows[0]
		if r[0].I != 81 || r[1].I != 40 || r[2].S != "F" || r[3].I != 1 {
			t.Errorf("row = %v", r)
		}
	})
}

func TestDivisionSemantics(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT hours / 0, hours % 7, COALESCE(income, -1) FROM census LIMIT 1")
		if !rows[0][0].IsNull() {
			t.Error("division by zero should yield NULL")
		}
		if rows[0][1].I != 40%7 {
			t.Errorf("modulo = %v", rows[0][1])
		}
	})
}

func TestHavingLikeExpressionOverAggregates(t *testing.T) {
	// Post-aggregation arithmetic over aggregate results.
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT sex, SUM(income) / COUNT(*) FROM census GROUP BY sex ORDER BY sex")
		// F: 30/3=10 (COUNT(*) counts the NULL row), M: 120/3=40.
		if rows[0][1].F != 10 || rows[1][1].F != 40 {
			t.Errorf("rows = %v", rows)
		}
	})
}

func TestAggregateQueryErrors(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		bad := []string{
			"SELECT sex, income FROM census GROUP BY sex",               // non-grouped column
			"SELECT sex, AVG(AVG(income)) FROM census GROUP BY sex",     // nested agg
			"SELECT sex FROM census WHERE AVG(income) > 1",              // agg in WHERE
			"SELECT sex, SUM(DISTINCT income) FROM census GROUP BY sex", // DISTINCT non-count
			"SELECT AVG(income, hours) FROM census",                     // arity
			"SELECT nosuch FROM census",                                 // unknown column
			"SELECT FOO(income) FROM census",                            // unknown function
			"SELECT a FROM nosuchtable",                                 // unknown table
			"SELECT sex, COUNT(*) FROM census GROUP BY AVG(income)",     // agg in GROUP BY
			"SELECT sex, COUNT(*) FROM census GROUP BY sex ORDER BY 5",  // ordinal range
		}
		for _, sql := range bad {
			if _, err := db.QueryOpts(sql, ExecOptions{}); err == nil {
				t.Errorf("Query(%q) should fail", sql)
			}
		}
	})
}

func TestContextCancellation(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateTable("big", MustSchema(Column{Name: "x", Type: TypeInt}), LayoutCol)
	for i := 0; i < 100000; i++ {
		if err := tab.Append([][]Value{{Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT SUM(x) FROM big"); err == nil {
		t.Error("cancelled query should fail")
	}
}

// naiveGroupAvg is an oracle: group-by a on column ai, average of column mi.
func naiveGroupAvg(rows [][]Value, ai, mi int) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, r := range rows {
		if r[mi].IsNull() {
			continue
		}
		k := r[ai].String()
		f, _ := r[mi].AsFloat()
		sums[k] += f
		counts[k]++
	}
	out := map[string]float64{}
	for k := range sums {
		out[k] = sums[k] / counts[k]
	}
	return out
}

func TestExecutorAgainstOracleRandomData(t *testing.T) {
	// Random data, both layouts, executor vs a naive reference.
	rng := rand.New(rand.NewSource(7))
	schema := MustSchema(
		Column{Name: "d1", Type: TypeString},
		Column{Name: "d2", Type: TypeInt},
		Column{Name: "m1", Type: TypeFloat},
	)
	var raw [][]Value
	for i := 0; i < 2000; i++ {
		raw = append(raw, []Value{
			Str(fmt.Sprintf("g%d", rng.Intn(7))),
			Int(int64(rng.Intn(4))),
			Float(rng.Float64() * 100),
		})
	}
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		db := NewDB()
		tab, _ := db.CreateTable("t", schema, layout)
		if err := tab.Append(raw); err != nil {
			t.Fatal(err)
		}
		res, err := db.QueryOpts("SELECT d1, AVG(m1) FROM t GROUP BY d1", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracle := naiveGroupAvg(raw, 0, 2)
		if len(res.Rows) != len(oracle) {
			t.Fatalf("[%v] %d groups, oracle %d", layout, len(res.Rows), len(oracle))
		}
		for _, r := range res.Rows {
			want := oracle[r[0].S]
			if diff := r[1].F - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("[%v] group %s avg = %v, oracle %v", layout, r[0].S, r[1].F, want)
			}
		}
	}
}

func TestRowAndColStoresAgree(t *testing.T) {
	// Property: both physical layouts return identical (sorted) results
	// for the same logical query over the same logical data.
	rng := rand.New(rand.NewSource(11))
	schema := MustSchema(
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
		Column{Name: "m", Type: TypeFloat},
	)
	queries := []string{
		"SELECT a, COUNT(*) FROM t GROUP BY a",
		"SELECT b, SUM(m), MIN(m), MAX(m) FROM t GROUP BY b",
		"SELECT a, b, AVG(m) FROM t WHERE m > 50 GROUP BY a, b",
		"SELECT COUNT(*) FROM t WHERE b = 'x1' OR a IN (0, 2)",
		"SELECT a, CASE WHEN m > 50 THEN 'hi' ELSE 'lo' END AS band, COUNT(*) FROM t GROUP BY a, CASE WHEN m > 50 THEN 'hi' ELSE 'lo' END",
	}
	for trial := 0; trial < 5; trial++ {
		dbRow, dbCol := NewDB(), NewDB()
		tr, _ := dbRow.CreateTable("t", schema, LayoutRow)
		tc, _ := dbCol.CreateTable("t", schema, LayoutCol)
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			row := []Value{
				Int(int64(rng.Intn(5))),
				Str(fmt.Sprintf("x%d", rng.Intn(3))),
				Float(float64(rng.Intn(1000)) / 10),
			}
			if err := tr.Append([][]Value{row}); err != nil {
				t.Fatal(err)
			}
			if err := tc.Append([][]Value{row}); err != nil {
				t.Fatal(err)
			}
		}
		for _, sql := range queries {
			r1, err := dbRow.QueryOpts(sql, ExecOptions{})
			if err != nil {
				t.Fatalf("ROW %q: %v", sql, err)
			}
			r2, err := dbCol.QueryOpts(sql, ExecOptions{})
			if err != nil {
				t.Fatalf("COL %q: %v", sql, err)
			}
			if !sameRowSet(r1.Rows, r2.Rows) {
				t.Errorf("trial %d: layouts disagree on %q:\nROW: %v\nCOL: %v", trial, sql, r1.Rows, r2.Rows)
			}
		}
	}
}

// sameRowSet compares two result sets ignoring row order.
func sameRowSet(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r []Value) string {
		s := ""
		for _, v := range r {
			s += "|" + fmt.Sprintf("%v:%s", v.Kind, v.String())
		}
		return s
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}

func TestPreparedQueryReuse(t *testing.T) {
	db := buildDB(t, LayoutCol)
	q, err := db.Prepare("SELECT sex, COUNT(*) FROM census GROUP BY sex")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := q.Exec(ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Exec(ExecOptions{Lo: 0, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 2 || r1.Stats.RowsScanned != 6 {
		t.Errorf("full exec wrong: %v", r1.Rows)
	}
	if r2.Stats.RowsScanned != 3 {
		t.Errorf("partial exec scanned %d, want 3", r2.Stats.RowsScanned)
	}
}

// TestPrepareResolvesCaseInsensitively: Prepare accepts lower-case
// keywords and a table name in any case, runs what the canonical query
// runs, and fails up front on a missing table or a syntax error.
func TestPrepareResolvesCaseInsensitively(t *testing.T) {
	db := buildDB(t, LayoutCol)
	q, err := db.Prepare("select sex, count(*) from CENSUS group by sex")
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Exec(ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := queryRows(t, db, "SELECT sex, COUNT(*) FROM census GROUP BY sex")
	if !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("prepared lower-case query = %v, want %v", got.Rows, want)
	}
	for _, sql := range []string{"SELECT COUNT(*) FROM nosuch", "SELECT COUNT(* FROM census"} {
		if _, err := db.Prepare(sql); err == nil {
			t.Errorf("Prepare(%q) should fail", sql)
		}
	}
}
