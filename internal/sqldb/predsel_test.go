package sqldb

import (
	"fmt"
	"math"
	"testing"
)

// predselTable builds a small table covering every column type with
// NULLs in each nullable column, plus NaN and ±Inf in the float column
// (the interpreter's Value.Compare treats NaN as equal to everything,
// so <=, >= and BETWEEN are TRUE for NaN cells — the kernels must
// reproduce that exactly).
func predselTable(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateTable("t", MustSchema(
		Column{Name: "s", Type: TypeString},
		Column{Name: "b", Type: TypeBool},
		Column{Name: "i", Type: TypeInt},
		Column{Name: "f", Type: TypeFloat},
	), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		vals := []Value{
			Str(fmt.Sprintf("v%02d", r%13)),
			Bool(r%3 == 0),
			Int(int64(r%21 - 10)),
			Float(float64(r%17) * 0.25),
		}
		if r%7 == 0 {
			vals[0] = Null()
		}
		if r%5 == 0 {
			vals[1] = Null()
		}
		if r%11 == 0 {
			vals[2] = Null()
		}
		switch r % 23 {
		case 1:
			vals[3] = Float(math.NaN())
		case 2:
			vals[3] = Float(math.Inf(1))
		case 3:
			vals[3] = Float(math.Inf(-1))
		}
		if r%4 == 0 {
			vals[3] = Null()
		}
		if err := tab.Append([][]Value{vals}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSelectionKernelsMatchInterpreter runs one WHERE shape per grammar
// production (and the NULL-semantics edges) under the kernels and under
// the closure interpreter of a row-store twin, asserting identical
// filtered groups.
func TestSelectionKernelsMatchInterpreter(t *testing.T) {
	db := predselTable(t, 3000)
	twin := rowTwin(t, db)
	preds := []string{
		// Comparison leaves per column type, both literal positions.
		"i > 3", "i <= -4", "3 < i", "f >= 2.5", "f != 0.25", "2.0 > f",
		"s = 'v05'", "s != 'v05'", "s < 'v07'", "s >= 'v10'",
		"b = TRUE", "b != FALSE", "b", "NOT b", "i", "NOT i", "f",
		// NULL tests and NULL-literal comparisons.
		"s IS NULL", "s IS NOT NULL", "f IS NULL", "i IS NOT NULL",
		"i = NULL", "NULL = i", "s != NULL", "f < NULL", "NOT (i = NULL)",
		// IN / BETWEEN, both polarities, mixed-kind elements.
		"i IN (1, 2, 3)", "i NOT IN (0, -1)", "i IN (1, NULL, 2)",
		"s IN ('v01', 'v02')", "s NOT IN ('v03', 'v04', 'nope')",
		"f BETWEEN 0.5 AND 2.75", "f NOT BETWEEN 1.0 AND 2.0",
		"s BETWEEN 'v02' AND 'v09'", "i BETWEEN NULL AND 5",
		// Conjunctions, disjunctions, De Morgan, nesting.
		"i > 0 AND f < 3.0", "s = 'v01' OR s = 'v02' OR b = TRUE",
		"NOT (i > 0 AND f < 3.0)", "NOT (s = 'v01' OR i IS NULL)",
		"NOT (NOT (i > 0))", "i > 0 AND (s = 'v01' OR f > 1.0) AND b IS NOT NULL",
		// Constant predicates.
		"TRUE", "FALSE", "NOT TRUE", "NULL",
		// Hybrid: residual conjuncts alongside kernel conjuncts.
		"i > 0 AND i % 2 = 0", "f < 3.0 AND ABS(i) > 2", "i + 0 > 3",
		"LENGTH(s) = 3 OR i > 5",
	}
	for _, pred := range preds {
		// The aggregates deliberately avoid float NaN accumulation:
		// Value.Compare treats NaN as equal to everything, so MIN/MAX
		// (and NaN-payload-sensitive SUM) over data mixing NaN and ±Inf
		// are inherently order-dependent across chunk splits — a
		// pre-existing executor caveat, not a predicate property. The
		// per-group COUNTs pin the filter semantics exactly: any row
		// mis-selected by a kernel shifts a group's count.
		sql := fmt.Sprintf("SELECT s, COUNT(*), COUNT(f), SUM(i), MIN(i) FROM t WHERE %s GROUP BY s", pred)
		serial := interpret(t, twin, sql, ExecOptions{})
		for _, workers := range []int{1, 2, 5} {
			par, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", pred, workers, err)
			}
			if !par.Stats.Vectorized {
				t.Fatalf("%s: expected vectorized run (reason %q)", pred, par.Stats.FallbackReason)
			}
			mustEqualResults(t, sql, serial, par)
		}
	}
}

// TestCompileSelectionSplit pins the kernel/residual classification: the
// hybrid filter must compile exactly the compilable conjuncts and keep
// the rest as closures, never rejecting the whole predicate.
func TestCompileSelectionSplit(t *testing.T) {
	schema := MustSchema(
		Column{Name: "s", Type: TypeString},
		Column{Name: "b", Type: TypeBool},
		Column{Name: "i", Type: TypeInt},
		Column{Name: "f", Type: TypeFloat},
	)
	cases := []struct {
		pred               string
		kernels, residuals int
	}{
		{"i > 3", 1, 0},
		{"i > 3 AND s = 'x'", 2, 0},
		{"i > 3 AND i % 2 = 0", 1, 1},
		{"i % 2 = 0 AND ABS(f) > 1", 0, 2},
		{"s = 'a' OR s = 'b'", 1, 0},
		{"s = 'a' OR ABS(f) > 1", 0, 1}, // one exotic disjunct poisons the OR
		{"NOT (i > 3 OR f < 1.0)", 2, 0},
		{"NOT (i > 3 AND f < 1.0)", 1, 0},
		{"i IS NULL AND s IS NOT NULL AND b = TRUE AND f BETWEEN 0.0 AND 1.0", 4, 0},
		{"i = NULL", 1, 0},
		{"f > i", 0, 1}, // column vs column
	}
	for _, tc := range cases {
		stmt, err := Parse("SELECT COUNT(*) FROM t WHERE " + tc.pred)
		if err != nil {
			t.Fatalf("%s: %v", tc.pred, err)
		}
		prog, err := compileSelection(stmt.Where, schema)
		if err != nil {
			t.Fatalf("%s: %v", tc.pred, err)
		}
		if got := prog.kernelCount(); got != tc.kernels {
			t.Errorf("%s: %d kernels, want %d", tc.pred, got, tc.kernels)
		}
		if got := prog.residualCount(); got != tc.residuals {
			t.Errorf("%s: %d residuals, want %d", tc.pred, got, tc.residuals)
		}
	}
}
