package sqldb

import (
	"errors"
	"strings"
	"testing"
)

// unionQueries are UNION ALL statements in the shapes the engine sends
// and around them: per-branch aggregate lists of different lengths,
// padding NULLs, shared and distinct WHEREs and flags, numeric keys,
// global aggregation, HAVING and DISTINCT inside a branch.
var unionQueries = []string{
	// The engine's phase statement: a branch index, one key column per
	// dimension, the flag, then each branch's own aggregates.
	"SELECT 0, d1, NULL, CASE WHEN m2 > 0 THEN 1 ELSE 0 END, SUM(m1), COUNT(m1), SUM(m2), COUNT(m2) FROM t GROUP BY d1, CASE WHEN m2 > 0 THEN 1 ELSE 0 END" +
		" UNION ALL SELECT 1, NULL, d2, CASE WHEN m2 > 0 THEN 1 ELSE 0 END, SUM(m2), COUNT(m2), NULL, NULL FROM t GROUP BY d2, CASE WHEN m2 > 0 THEN 1 ELSE 0 END",
	// Target/reference split: one WHERE per branch, a shared one too.
	"SELECT 0, d1, COUNT(*), SUM(m1) FROM t WHERE m2 > 0 GROUP BY d1" +
		" UNION ALL SELECT 1, d1, COUNT(*), SUM(m1) FROM t WHERE m1 < 100 OR d2 = 'h1' GROUP BY d1" +
		" UNION ALL SELECT 2, d2, COUNT(*), MIN(m1) FROM t WHERE m2 > 0 GROUP BY d2",
	// Distinct flags over a shared WHERE, two flags in one branch,
	// residual conjuncts in both.
	"SELECT d1, CASE WHEN m2 % 3 = 0 THEN 1 ELSE 0 END, COUNT(*) FROM t WHERE b1 AND m2 % 2 = 0 GROUP BY d1, CASE WHEN m2 % 3 = 0 THEN 1 ELSE 0 END" +
		" UNION ALL SELECT d2, CASE WHEN d1 = 'g1' THEN 7 ELSE 3 END, CASE WHEN m2 % 3 = 0 THEN 1 ELSE 0 END FROM t WHERE b1 AND m2 % 2 = 0 GROUP BY d2, CASE WHEN d1 = 'g1' THEN 7 ELSE 3 END, CASE WHEN m2 % 3 = 0 THEN 1 ELSE 0 END",
	// Numeric and bool keys, MIN/MAX, a global aggregation branch.
	"SELECT k1, SUM(m1), MAX(m2) FROM t GROUP BY k1" +
		" UNION ALL SELECT m1, COUNT(*), MIN(m2) FROM t GROUP BY m1" +
		" UNION ALL SELECT b1, AVG(m1), COUNT(m1) FROM t GROUP BY b1" +
		" UNION ALL SELECT NULL, COUNT(*), SUM(m2) FROM t WHERE m1 < -1",
	// HAVING and DISTINCT inside branches.
	"SELECT d1, SUM(m2) FROM t GROUP BY d1 HAVING COUNT(*) > 300 UNION ALL SELECT DISTINCT d2, 1 FROM t GROUP BY d2, d1",
}

// TestUnionAllMatchesInterpreter runs every compound on the column store
// at several worker counts and requires one shared vectorized scan whose
// rows equal the row interpreter's bit for bit, and whose row visits are
// counted per branch.
func TestUnionAllMatchesInterpreter(t *testing.T) {
	db := vexecTable(t, 5000)
	twin := rowTwin(t, db)
	for _, sql := range unionQueries {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		branches := len(stmt.Branches())
		ref := interpret(t, twin, sql, ExecOptions{})
		if ref.Stats.RowsScanned != branches*5000 {
			t.Fatalf("%s: interpreter scanned %d rows, want %d", sql, ref.Stats.RowsScanned, branches*5000)
		}
		// The interpreter's compound is its branches' results in order.
		var concat Result
		for _, b := range stmt.Branches() {
			one := *b
			one.UnionAll = nil
			r := interpret(t, twin, one.String(), ExecOptions{})
			concat.Columns = r.Columns
			concat.Rows = append(concat.Rows, r.Rows...)
		}
		mustEqualResults(t, sql, &concat, ref)
		for _, workers := range []int{1, 2, 3, 7} {
			got, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", sql, workers, err)
			}
			if !got.Stats.Vectorized || got.Stats.FallbackReason != "" {
				t.Fatalf("%s: workers=%d: expected the shared scan: %+v", sql, workers, got.Stats)
			}
			mustEqualResults(t, sql, ref, got)
			if got.Stats.RowsScanned != ref.Stats.RowsScanned || got.Stats.Groups != ref.Stats.Groups {
				t.Fatalf("%s: workers=%d: rows/groups %d/%d, interpreter %d/%d", sql, workers,
					got.Stats.RowsScanned, got.Stats.Groups, ref.Stats.RowsScanned, ref.Stats.Groups)
			}
		}
	}
}

// TestUnionAllSharesPredicates pins that a shared scan binds each
// distinct WHERE and flag once: three branches over one WHERE (two
// kernels) and one flag (one kernel) bind three kernels, not nine.
func TestUnionAllSharesPredicates(t *testing.T) {
	db := vexecTable(t, 3000)
	const flag = "CASE WHEN d2 = 'h1' THEN 1 ELSE 0 END"
	var parts []string
	for _, d := range []string{"d1", "d2", "b1"} {
		parts = append(parts, "SELECT "+d+", "+flag+", COUNT(*) FROM t WHERE m2 > 0 AND k1 < 4 GROUP BY "+d+", "+flag)
	}
	res, err := db.QueryOpts(strings.Join(parts, " UNION ALL "), ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Vectorized || res.Stats.SelectionKernels != 3 || res.Stats.RowsScanned != 3*3000 {
		t.Fatalf("stats %+v, want vectorized, 3 kernels, 9000 row visits", res.Stats)
	}
}

// TestUnionAllFallsBackPerBranch covers compounds the shared scan cannot
// run: a branch outside the fast path, a row store, and branches over
// different tables. Each runs its branches one by one, with the same
// rows the interpreter returns.
func TestUnionAllFallsBackPerBranch(t *testing.T) {
	db := vexecTable(t, 2000)
	other, err := db.CreateTable("u", MustSchema(Column{Name: "d1", Type: TypeString}), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"x", "y", "x"} {
		if err := other.Append([][]Value{{Str(s)}}); err != nil {
			t.Fatal(err)
		}
	}
	twin := rowTwin(t, db)
	cases := []struct{ sql, reason string }{
		{"SELECT d1, COUNT(*) FROM t GROUP BY d1 UNION ALL SELECT d2, COUNT(DISTINCT k1) FROM t GROUP BY d2", fallbackDistinctAgg},
		{"SELECT d1, k1 FROM t WHERE m2 = 3 UNION ALL SELECT d2, COUNT(*) FROM t GROUP BY d2", fallbackNonGrouped},
	}
	for _, c := range cases {
		got, err := db.QueryOpts(c.sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got.Stats.Vectorized || got.Stats.FallbackReason != c.reason {
			t.Fatalf("%s: stats %+v, want fallback %q", c.sql, got.Stats, c.reason)
		}
		mustEqualResults(t, c.sql, interpret(t, twin, c.sql, ExecOptions{}), got)
	}
	res, err := db.QueryOpts("SELECT d1, COUNT(*) FROM t GROUP BY d1 UNION ALL SELECT d1, COUNT(*) FROM u GROUP BY d1", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Vectorized || res.Stats.RowsScanned != 2003 {
		t.Fatalf("two tables: stats %+v", res.Stats)
	}
	if last := res.Rows[len(res.Rows)-1]; last[0].S != "y" || last[1].I != 1 {
		t.Fatalf("two tables: last row %v", last)
	}
}

// TestParseUnionAll pins the compound grammar: canonical round trips,
// and the shapes it rejects.
func TestParseUnionAll(t *testing.T) {
	for _, sql := range unionQueries {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		again, err := Parse(stmt.String())
		if err != nil || again.String() != stmt.String() {
			t.Fatalf("round trip of %s: %v\n%s\n%s", sql, err, stmt, again)
		}
	}
	for _, bad := range []string{
		"SELECT a FROM t UNION ALL SELECT a, b FROM t",
		"SELECT a FROM t UNION SELECT a FROM t",
		"SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY a",
		"SELECT a FROM t UNION ALL SELECT a FROM t LIMIT 1",
		"SELECT a FROM t ORDER BY a UNION ALL SELECT a FROM t",
		"SELECT a FROM t LIMIT 2 UNION ALL SELECT a FROM t",
		"SELECT a FROM t UNION ALL",
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrParse) {
			t.Errorf("%s: err %v, want a parse error", bad, err)
		}
	}
	// A branch selecting * is checked against the schema when planned.
	db := vexecTable(t, 10)
	if _, err := db.QueryOpts("SELECT * FROM t UNION ALL SELECT d1 FROM t", ExecOptions{}); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("width mismatch through *: err %v", err)
	}
}
