package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// vexecTable builds a ColStore with SeeDB-shaped data: string dims (with
// NULLs), a bool column, int and float measures (with NULLs). Float
// values are multiples of 0.25 so chunked summation stays exact.
func vexecTable(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	schema := MustSchema(
		Column{Name: "d1", Type: TypeString},
		Column{Name: "d2", Type: TypeString},
		Column{Name: "b1", Type: TypeBool},
		Column{Name: "k1", Type: TypeInt},
		Column{Name: "m1", Type: TypeFloat},
		Column{Name: "m2", Type: TypeInt},
	)
	tab, err := db.CreateTable("t", schema, LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		vals := []Value{
			Str(fmt.Sprintf("g%d", i%7)),
			Str(fmt.Sprintf("h%d", i%3)),
			Bool(i%2 == 0),
			Int(int64(i % 5)),
			Float(float64(i%1000) * 0.25),
			Int(int64(i%90 - 45)),
		}
		if i%11 == 0 {
			vals[0] = Null()
		}
		if i%13 == 0 {
			vals[4] = Null()
		}
		if i%17 == 0 {
			vals[2] = Null()
		}
		if err := tab.Append([][]Value{vals}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// rowTwin copies table "t" of db into a fresh ROW-layout store. Row
// stores always run the row interpreter, so the twin is the reference
// every column-store execution must match.
func rowTwin(t *testing.T, db *DB) *DB {
	t.Helper()
	src, ok := db.Table("t")
	if !ok {
		t.Fatal("no table t")
	}
	twin := NewDB()
	tab, err := twin.CreateTable("t", src.Schema(), LayoutRow)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]int, src.Schema().NumColumns())
	for i := range cols {
		cols[i] = i
	}
	row := make([]Value, len(cols))
	if err := src.ScanRange(0, src.NumRows(), cols, func(rv RowView) error {
		for i := range row {
			row[i] = rv.Value(i)
		}
		return tab.Append([][]Value{row})
	}); err != nil {
		t.Fatal(err)
	}
	return twin
}

// interpret runs sql on the row twin and checks the interpreter ran.
func interpret(t *testing.T, twin *DB, sql string, opts ExecOptions) *Result {
	t.Helper()
	res, err := twin.QueryOpts(sql, opts)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", sql, err)
	}
	if res.Stats.Vectorized || res.Stats.SelectionKernels != 0 {
		t.Fatalf("%s: row twin must run the interpreter: %+v", sql, res.Stats)
	}
	return res
}

// mustEqualResults asserts byte-identical rows (AppendKey encoding, so
// NaN and -0.0 are distinguished) and equal columns.
func mustEqualResults(t *testing.T, sql string, a, b *Result) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s: column count %d vs %d", sql, len(a.Columns), len(b.Columns))
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row count %d vs %d", sql, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("%s: row %d width %d vs %d", sql, i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			ka := string(a.Rows[i][j].AppendKey(nil))
			kb := string(b.Rows[i][j].AppendKey(nil))
			if ka != kb {
				t.Fatalf("%s: row %d col %d: %v vs %v", sql, i, j,
					a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// TestVectorizedMatchesSerial runs every eligible shape on the column
// store at one worker and at several, and requires each run to take the
// fast path and match the row interpreter bit for bit.
func TestVectorizedMatchesSerial(t *testing.T) {
	db := vexecTable(t, 5000)
	twin := rowTwin(t, db)
	queries := []string{
		"SELECT d1, COUNT(*), SUM(m1), AVG(m1), MIN(m2), MAX(m2) FROM t GROUP BY d1",
		"SELECT d1, d2, AVG(m1) FROM t GROUP BY d1, d2",
		"SELECT d1, CASE WHEN d2 = 'h1' THEN 1 ELSE 0 END AS flag, SUM(m1), COUNT(m1) FROM t GROUP BY d1, CASE WHEN d2 = 'h1' THEN 1 ELSE 0 END",
		"SELECT b1, COUNT(m1), MIN(m1), MAX(m1) FROM t GROUP BY b1",
		"SELECT d1, COUNT(*) FROM t WHERE m2 > 0 AND d2 != 'h2' GROUP BY d1",
		"SELECT d1, SUM(m2) FROM t GROUP BY d1 HAVING COUNT(*) > 100 ORDER BY SUM(m2) DESC",
		"SELECT COUNT(*), SUM(m1) FROM t",                      // global aggregation
		"SELECT COUNT(*) FROM t WHERE m1 < -1",                 // empty global group
		"SELECT d1, COUNT(*) FROM t WHERE m1 < -1 GROUP BY d1", // zero groups
		"SELECT d1, AVG(m1) FROM t GROUP BY d1 ORDER BY 2 DESC LIMIT 3",
		// Numeric group keys (runtime value dictionaries), incl. NULLs.
		"SELECT k1, COUNT(*), SUM(m1) FROM t GROUP BY k1",
		"SELECT m1, COUNT(*) FROM t GROUP BY m1",
		"SELECT k1, d1, AVG(m1), MIN(m2) FROM t WHERE b1 = TRUE GROUP BY k1, d1",
		"SELECT m2, k1, COUNT(m1) FROM t GROUP BY m2, k1",
		// Compilable predicate shapes (selection kernels) over every
		// column type, incl. NULL-comparison and disjunction edges.
		"SELECT d1, COUNT(*) FROM t WHERE d2 >= 'h1' AND k1 IN (1, 3) GROUP BY d1",
		"SELECT d1, SUM(m1) FROM t WHERE m1 BETWEEN 10.25 AND 200 OR m2 IS NULL GROUP BY d1",
		"SELECT d2, COUNT(*) FROM t WHERE NOT (d1 = 'g2' OR m2 <= 0) GROUP BY d2",
		"SELECT d1, COUNT(*) FROM t WHERE m1 = NULL GROUP BY d1",
		"SELECT d1, COUNT(*) FROM t WHERE b1 AND d2 NOT IN ('h0') GROUP BY d1",
		// Hybrid residual: one compilable conjunct + one closure conjunct.
		"SELECT d1, COUNT(*) FROM t WHERE m2 > 0 AND m2 % 3 = 0 GROUP BY d1",
	}
	for _, sql := range queries {
		ref := interpret(t, twin, sql, ExecOptions{})
		for _, workers := range []int{1, 2, 3, 7} {
			par, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", sql, workers, err)
			}
			if !par.Stats.Vectorized {
				t.Fatalf("%s: workers=%d: expected vectorized execution", sql, workers)
			}
			if par.Stats.Workers < 1 || par.Stats.Workers > workers {
				t.Fatalf("%s: reported %d workers, asked for %d", sql, par.Stats.Workers, workers)
			}
			mustEqualResults(t, sql, ref, par)
			if ref.Stats.RowsScanned != par.Stats.RowsScanned {
				t.Fatalf("%s: rows scanned %d vs %d", sql, ref.Stats.RowsScanned, par.Stats.RowsScanned)
			}
			if ref.Stats.Groups != par.Stats.Groups {
				t.Fatalf("%s: groups %d vs %d", sql, ref.Stats.Groups, par.Stats.Groups)
			}
		}
	}
}

// TestSerialIsOneWorker pins that a worker count of 0 or 1 is one worker
// on the same executor, not a different one: a grouped column-store
// query with a WHERE clause takes the vectorized path and binds its
// selection kernels.
func TestSerialIsOneWorker(t *testing.T) {
	db := vexecTable(t, 3000)
	sql := "SELECT d1, COUNT(*), SUM(m1) FROM t WHERE m2 > 0 AND d2 != 'h2' GROUP BY d1"
	for _, workers := range []int{0, 1} {
		res, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Stats; !s.Vectorized || s.SelectionKernels == 0 || s.Workers != 1 || s.FallbackReason != "" {
			t.Errorf("workers=%d: want one vectorized worker with kernels, stats: %+v", workers, s)
		}
	}
}

// TestVectorizedWorkerCap asserts an absurd Workers value (e.g. one
// forwarded from an untrusted request knob) is capped near GOMAXPROCS
// instead of spawning a goroutine per row.
func TestVectorizedWorkerCap(t *testing.T) {
	db := vexecTable(t, 4000)
	res, err := db.QueryOpts("SELECT d1, SUM(m1) FROM t GROUP BY d1",
		ExecOptions{Workers: 1_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Vectorized {
		t.Fatal("expected vectorized execution")
	}
	if max := maxWorkersPerQuery(); res.Stats.Workers > max {
		t.Fatalf("used %d workers, cap is %d", res.Stats.Workers, max)
	}
}

func TestVectorizedSubRanges(t *testing.T) {
	db := vexecTable(t, 3000)
	twin := rowTwin(t, db)
	sql := "SELECT d1, d2, SUM(m1), COUNT(*) FROM t GROUP BY d1, d2"
	ranges := [][2]int{{0, 1}, {0, 100}, {17, 18}, {500, 2999}, {2999, 3000}, {1000, 1000}, {2000, 0}, {-5, 50}}
	for _, r := range ranges {
		ref := interpret(t, twin, sql, ExecOptions{Lo: r[0], Hi: r[1]})
		for _, workers := range []int{1, 4} {
			par, err := db.QueryOpts(sql, ExecOptions{Lo: r[0], Hi: r[1], Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, fmt.Sprintf("%s [%d,%d) workers=%d", sql, r[0], r[1], workers), ref, par)
		}
	}
}

// TestVectorizedFallbacks asserts the interpreter handles shapes the fast
// path declines, at every worker count and with the same reason, and
// that row stores always use it.
func TestVectorizedFallbacks(t *testing.T) {
	db := vexecTable(t, 2000)
	fallbacks := []struct {
		sql    string
		reason string
	}{
		{"SELECT d1, COUNT(DISTINCT d2) FROM t GROUP BY d1", fallbackDistinctAgg},
		{"SELECT d1, MIN(d2) FROM t GROUP BY d1", fallbackNonNumericAgg},
		{"SELECT d1, SUM(m1 + m2) FROM t GROUP BY d1", fallbackExprAgg},
		{"SELECT UPPER(d1), COUNT(*) FROM t GROUP BY UPPER(d1)", fallbackNonColumnKey},
		{"SELECT CASE WHEN b1 THEN 'y' ELSE 'n' END, COUNT(*) FROM t GROUP BY CASE WHEN b1 THEN 'y' ELSE 'n' END", fallbackCaseShape}, // non-int CASE arms
	}
	for _, tc := range fallbacks {
		sql := tc.sql
		var runs []*Result
		for _, workers := range []int{1, 4} {
			res, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if res.Stats.Vectorized {
				t.Fatalf("%s: workers=%d: expected interpreter fallback", sql, workers)
			}
			if res.Stats.Workers != 1 {
				t.Fatalf("%s: fallback should report 1 worker, got %d", sql, res.Stats.Workers)
			}
			if res.Stats.FallbackReason != tc.reason {
				t.Fatalf("%s: workers=%d: fallback reason %q, want %q", sql, workers, res.Stats.FallbackReason, tc.reason)
			}
			runs = append(runs, res)
		}
		mustEqualResults(t, sql, runs[0], runs[1])
	}

	// Row stores always use the interpreter.
	rdb := NewDB()
	tab, err := rdb.CreateTable("t", MustSchema(
		Column{Name: "d", Type: TypeString}, Column{Name: "m", Type: TypeFloat},
	), LayoutRow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tab.Append([][]Value{{Str(fmt.Sprintf("g%d", i%4)), Float(float64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		res, err := rdb.QueryOpts("SELECT d, SUM(m) FROM t GROUP BY d", ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Vectorized {
			t.Fatal("row store must not vectorize")
		}
		if res.Stats.FallbackReason != fallbackRowStore {
			t.Fatalf("workers=%d: row store reason %q, want %q", workers, res.Stats.FallbackReason, fallbackRowStore)
		}
	}
}

// TestSelectionKernelStats asserts the executor reports how the
// predicate ran at every worker count: compilable conjuncts as kernels,
// exotic conjuncts as residuals, and neither under the row interpreter —
// with identical results on both paths.
func TestSelectionKernelStats(t *testing.T) {
	db := vexecTable(t, 4000)
	twin := rowTwin(t, db)
	// The CASE-flag predicate of the combined target/reference rewrite
	// compiles to kernels too.
	cases := []struct {
		sql                string
		kernels, residuals int
	}{
		{"SELECT d1, COUNT(*), SUM(m1) FROM t WHERE m2 > 0 AND d2 != 'h2' AND m2 % 3 = 0 GROUP BY d1", 2, 1},
		{"SELECT d1, CASE WHEN m1 > 50 AND b1 = TRUE THEN 1 ELSE 0 END, COUNT(*) FROM t" +
			" GROUP BY d1, CASE WHEN m1 > 50 AND b1 = TRUE THEN 1 ELSE 0 END", 2, 0},
	}
	for _, tc := range cases {
		ref := interpret(t, twin, tc.sql, ExecOptions{Workers: 4})
		for _, workers := range []int{1, 4} {
			kern, err := db.QueryOpts(tc.sql, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !kern.Stats.Vectorized || kern.Stats.FallbackReason != "" {
				t.Fatalf("workers=%d: expected vectorized run, stats: %+v", workers, kern.Stats)
			}
			if kern.Stats.SelectionKernels != tc.kernels || kern.Stats.ResidualPredicates != tc.residuals {
				t.Fatalf("%s: workers=%d: kernels=%d residuals=%d, want %d + %d", tc.sql, workers,
					kern.Stats.SelectionKernels, kern.Stats.ResidualPredicates, tc.kernels, tc.residuals)
			}
			mustEqualResults(t, tc.sql, ref, kern)
		}
	}
}

// TestTypedMinMaxMatchesInterpreterBeyond2p53 pins the typed MIN/MAX
// accumulators to the interpreter's float64-coerced comparison:
// Value.Compare coerces ints with AsFloat, so 2^53 and 2^53+1 compare
// equal (keep-first) — an exact int64 comparison in the fast path would
// return a different winner than the serial scan.
func TestTypedMinMaxMatchesInterpreterBeyond2p53(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("t", MustSchema(
		Column{Name: "d", Type: TypeString},
		Column{Name: "m", Type: TypeInt},
	), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	big := int64(1) << 53
	for i := 0; i < 400; i++ {
		v := big
		if i%2 == 1 {
			v = big + 1 // same float64 as big: Compare sees them equal
		}
		if err := tab.Append([][]Value{{Str(fmt.Sprintf("g%d", i%3)), Int(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT d, MIN(m), MAX(m) FROM t GROUP BY d"
	serial := interpret(t, rowTwin(t, db), sql, ExecOptions{})
	for _, workers := range []int{1, 2, 4, 7} {
		par, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !par.Stats.Vectorized {
			t.Fatalf("workers=%d: expected vectorized run (reason %q)", workers, par.Stats.FallbackReason)
		}
		mustEqualResults(t, sql, serial, par)
	}
}

// TestNumericGroupKeyEdges pins the runtime-dictionary group keys to the
// interpreter's identity semantics: -0.0 and +0.0 are distinct groups
// (the serial path keys on float bits), NULL is its own group, and
// worker-local codes remap correctly across chunk boundaries.
func TestNumericGroupKeyEdges(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("t", MustSchema(
		Column{Name: "f", Type: TypeFloat},
		Column{Name: "m", Type: TypeInt},
	), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	vals := []Value{Float(0.0), Float(math.Copysign(0, -1)), Float(1.5), Null(), Float(-1.5)}
	for i := 0; i < 500; i++ {
		if err := tab.Append([][]Value{{vals[i%len(vals)], Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT f, COUNT(*), SUM(m) FROM t GROUP BY f"
	serial := interpret(t, rowTwin(t, db), sql, ExecOptions{})
	if len(serial.Rows) != 5 {
		t.Fatalf("interpreter found %d groups, want 5 (NULL, ±0.0, ±1.5)", len(serial.Rows))
	}
	for _, workers := range []int{1, 2, 3, 7} {
		par, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !par.Stats.Vectorized {
			t.Fatalf("workers=%d: float group key should vectorize, reason %q",
				workers, par.Stats.FallbackReason)
		}
		mustEqualResults(t, sql, serial, par)
	}
}

// countingCtx is a context whose Err turns into context.Canceled after
// it has been asked a set number of times, and counts every ask — a
// cancellation that arrives mid-scan at an exact point, with no clock.
type countingCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestVectorizedCancellation asserts the scan loops keep checking the
// context as they go: the per-block check inside every vectorized worker
// and the checkEvery check of the interpreter. A context that cancels
// after N checks must stop the scan with at most one more check per
// worker — a scan that checked only up front, or not at all, would run
// to completion and return no error.
func TestVectorizedCancellation(t *testing.T) {
	const rows, after = 100_000, 5
	db := vexecTable(t, rows)
	cases := []struct {
		name           string
		db             *DB
		workers, every int
	}{
		{"col", db, 1, selBlockRows},
		{"col", db, 4, selBlockRows},
		{"row", rowTwin(t, db), 1, checkEvery},
	}
	for _, tc := range cases {
		// Un-cancelled, every chunk alone makes more checks than `after`,
		// so the cancellation lands mid-scan whatever the scheduling.
		if checks := rows / tc.workers / tc.every; checks <= after {
			t.Fatalf("%s workers=%d: only %d checks per chunk, cancellation would not be mid-scan", tc.name, tc.workers, checks)
		}
		ctx := &countingCtx{Context: context.Background(), after: after}
		_, err := tc.db.QueryOpts("SELECT d1, d2, b1, AVG(m1), SUM(m2) FROM t GROUP BY d1, d2, b1",
			ExecOptions{Ctx: ctx, Workers: tc.workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s workers=%d: want context.Canceled, got %v", tc.name, tc.workers, err)
		}
		if calls := ctx.calls.Load(); calls <= after || calls > int64(after+tc.workers) {
			t.Fatalf("%s workers=%d: %d context checks, want in (%d, %d]", tc.name, tc.workers, calls, after, after+tc.workers)
		}
	}
}

// TestGroupIDSpaceOverflowRetriesOnInterpreter gives four float group
// columns 1500 distinct values each: their exact id space, 1501^4, is
// beyond maxGroupIDSpace. The fast path must decline before the scan and
// the query must still answer, from the interpreter, with the reason
// reported.
func TestGroupIDSpaceOverflowRetriesOnInterpreter(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("t", MustSchema(
		Column{Name: "f1", Type: TypeFloat}, Column{Name: "f2", Type: TypeFloat},
		Column{Name: "f3", Type: TypeFloat}, Column{Name: "f4", Type: TypeFloat},
		Column{Name: "m", Type: TypeInt},
	), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		row := []Value{Float(float64(i % 1500)), Float(float64(i*7%1500) + 0.5), Float(float64(i*11%1500) - 0.25), Float(float64(i*13%1500) * 2), Int(int64(i))}
		if err := tab.Append([][]Value{row}); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT f1, f2, f3, f4, COUNT(*), SUM(m) FROM t GROUP BY f1, f2, f3, f4"
	ref := interpret(t, rowTwin(t, db), sql, ExecOptions{})
	for _, workers := range []int{1, 2} {
		par, err := db.QueryOpts(sql, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.Vectorized || par.Stats.FallbackReason != fallbackIDSpace {
			t.Fatalf("workers=%d: want interpreter retry for %q, stats: %+v", workers, fallbackIDSpace, par.Stats)
		}
		mustEqualResults(t, sql, ref, par)
	}
}

// TestIntRangeCard pins the range-coding decision for int group columns:
// the bounds come from the non-NULL values of exactly the scanned rows,
// one id is reserved for NULL, and the coding is refused as soon as the
// ids would not fit — including spans that overflow int64.
func TestIntRangeCard(t *testing.T) {
	col := func(vals ...any) *columnVector {
		c := &columnVector{typ: TypeInt}
		for i, v := range vals {
			if v == nil {
				if c.nulls == nil {
					c.nulls = make([]bool, len(vals))
				}
				c.nulls[i] = true
				c.ints = append(c.ints, 0)
				continue
			}
			c.ints = append(c.ints, int64(v.(int)))
		}
		return c
	}
	cases := []struct {
		name     string
		c        *columnVector
		lo, hi   int
		maxCard  uint64
		wantBase int64
		wantCard uint64
		wantFits bool
	}{
		{"plain", col(7, 3, 9), 0, 3, 100, 3, 8, true},
		{"sub-range only", col(7, 3, 9, -50), 0, 3, 100, 3, 8, true},
		{"nulls skipped", col(nil, 5, nil, 6), 0, 4, 100, 5, 3, true},
		{"all null", col(nil, nil), 0, 2, 100, 0, 1, true},
		{"empty range", col(1, 2), 1, 1, 100, 0, 1, true},
		{"single value", col(42, 42), 0, 2, 2, 42, 2, true},
		{"exactly fits", col(0, 98), 0, 2, 100, 0, 100, true},
		{"one too wide", col(0, 99), 0, 2, 100, 0, 0, false},
		{"no id budget", col(1), 0, 1, 1, 0, 0, false},
		{"int64 extremes", col(math.MinInt64, math.MaxInt64), 0, 2, denseGroupIDCap, 0, 0, false},
	}
	for _, tc := range cases {
		base, card, fits := intRangeCard(tc.c, tc.lo, tc.hi, tc.maxCard)
		if base != tc.wantBase || card != tc.wantCard || fits != tc.wantFits {
			t.Errorf("%s: got (base %d, card %d, fits %v), want (%d, %d, %v)",
				tc.name, base, card, fits, tc.wantBase, tc.wantCard, tc.wantFits)
		}
	}
}

// TestGroupedScanAllocations pins the allocation shape of the vectorized
// scan on the SeeDB query form (dictionary dimension + target flag,
// eight aggregates, two workers): what a query allocates depends on
// neither how many rows it scans nor — beyond the few doublings of a
// slab — on groups × aggregates. Per-row boxing or a per-group make
// would fail it by orders of magnitude. Counts only; nothing is timed.
func TestGroupedScanAllocations(t *testing.T) {
	build := func(rows, groups int) *DB {
		db := NewDB()
		tab, err := db.CreateTable("t", MustSchema(
			Column{Name: "d", Type: TypeString},
			Column{Name: "a", Type: TypeFloat}, Column{Name: "b", Type: TypeFloat},
			Column{Name: "c", Type: TypeInt}, Column{Name: "e", Type: TypeInt},
		), LayoutCol)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := []Value{Str(fmt.Sprintf("g%04d", i%groups)), Float(float64(i%64) * 0.25), Float(float64(i % 9)), Int(int64(i % 100)), Int(int64(i % 7))}
			if i%13 == 0 {
				row[1] = Null()
			}
			if err := tab.Append([][]Value{row}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	const flag = "CASE WHEN a > 4 AND c < 60 THEN 1 ELSE 0 END"
	sql := "SELECT d, " + flag + ", SUM(a), COUNT(a), SUM(b), COUNT(b), SUM(c), COUNT(c), SUM(e), COUNT(e) FROM t GROUP BY d, " + flag
	allocs := func(db *DB) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := db.QueryOpts(sql, ExecOptions{Workers: 2})
			if err != nil || !res.Stats.Vectorized {
				t.Fatalf("err %v, stats %+v", err, res.Stats)
			}
		})
	}
	// Ten times the rows is 88 more blocks: one allocation per block
	// would show, let alone one per row. (The counts are equal; the slack
	// is for the race detector's runtime, which allocates on its own.)
	small, large := allocs(build(10_000, 8)), allocs(build(100_000, 8))
	if large-small > 16 {
		t.Errorf("allocations grew with rows: %v at 10k rows, %v at 100k", small, large)
	}
	// 8 → 2000 dictionary values is 16 → 4000 groups, ×8 aggregates: the
	// slabs double twice past their first block's worth in each worker,
	// and the result row slice grows by appends; nothing is per group.
	many := allocs(build(100_000, 2000))
	if many-large > 64 {
		t.Errorf("allocations grew with groups: %v at 16 groups, %v at 4000", large, many)
	}
	t.Logf("allocs/query: %v (10k rows), %v (100k rows), %v (4000 groups)", small, large, many)
}
