// Package difftest is a differential test harness for sqldb's two
// aggregation executors: it generates random grouped-aggregate queries
// (dimensions × measures × aggregate functions × WHERE/HAVING/ORDER BY ×
// row sub-ranges) from a seed and executes each one three times: on the
// column store at Workers=1 and at Workers=N, where eligible shapes take
// the vectorized fast path, and on a ROW-layout twin of the same rows,
// where the row interpreter always runs. Both column-store results must
// equal the interpreter's row for row.
//
// Equality is exact to the bit (Kind, int64 payload, float64 bit
// pattern, string bytes). Chunked summation reassociates floating-point
// addition, so the generated float data is restricted to multiples of
// 0.25 with bounded magnitude: every partial sum is exactly
// representable and any association order produces identical bits,
// making exact comparison a legitimate oracle.
//
// The generator deliberately produces queries on both sides of the fast
// path's eligibility line (DISTINCT aggregates, string MIN, expression
// group keys and arguments all fall back to the interpreter; int group
// keys are range-coded when the scanned rows' span is narrow and
// dictionary-coded when it is wide — Run counts both from the scan
// span's group_keys attribute — and float keys always
// dictionary-coded), plus the
// NULL-handling and empty-group edge cases: NULL dimension values, NULL
// measures inside groups, all-NULL groups, predicates selecting zero
// rows, and empty row ranges. WHERE clauses span every column type and
// every selection-kernel shape — comparisons with literals on either
// side, IN/BETWEEN/IS NULL, NULL-literal comparisons, negated
// conjunctions/disjunctions — alongside closure-only residual shapes
// (column-vs-column, arithmetic, function calls), so the hybrid
// kernel+residual filter is differentially checked against the
// interpreter on every run.
package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// Harness owns the generated table and the query generator. DB holds the
// table in the column layout; Ref holds the same rows in the row layout,
// the interpreter reference.
type Harness struct {
	DB, Ref *sqldb.DB
	rng     *rand.Rand
	rows    int
	// groupPool is what Gen draws GROUP BY expressions from; intKeys names
	// the pool's int columns, whose coding Run counts.
	groupPool []string
	intKeys   map[string]bool
	// edges are the row ranges over which column e0 sits at one edge of
	// the int group-key coding each: all NULL, a single value, a span that
	// just fits range coding, a span one value too wide for it. Gen draws
	// them as sub-ranges now and then. Empty on tables without e0.
	edges [][2]int
}

// baseGroupPool is the GROUP BY pool every harness table supports: plain
// columns of every type vectorize — k0 and m2 (small-range ints, m2 with
// NULLs) range-coded, m0 (float, with NULLs) by the dictionary pre-pass
// — while scalar expressions exercise the column store's
// interpreter fallback.
var baseGroupPool = []string{"d0", "d1", "d2", "b0", "d0", "d1", "b0", "k0", "m0", "m2", "LOWER(d0)"}

// rangeCodedSpan is the widest value span (max − min) of an int group
// key that sqldb still range-codes when it is the only key: its dense
// id space holds 1<<16 ids, one of them NULL's.
const rangeCodedSpan = 1<<16 - 2

// wideInts are the values of column w0: a handful of groups whose span
// is far beyond any range coding, int64's extremes included.
var wideInts = []int64{math.MinInt64, math.MaxInt64, -1 << 40, -1, 0, 7, 1 << 33, 1<<53 + 1}

// dimension cardinalities of the generated table (d0, d1, d2).
var dimCards = [3]int{3, 8, 40}

// New builds a deterministic random table "t" with seeded contents, once
// per layout: three string dimensions (two with NULLs), a bool column, a
// low-cardinality int column, float and int measures with NULLs, a
// string column used as a COUNT/MIN argument, and two int columns that
// exist to be group keys: w0, wide (see wideInts, with NULLs), and e0,
// whose values depend on the row's position (see Harness.edges).
func New(seed int64, rows int) (*Harness, error) {
	h := &Harness{DB: sqldb.NewDB(), Ref: sqldb.NewDB(), rng: rand.New(rand.NewSource(seed)), rows: rows}
	h.groupPool = append(append([]string{}, baseGroupPool...), "w0", "e0")
	h.intKeys = map[string]bool{"k0": true, "m2": true, "w0": true, "e0": true}
	cuts := [5]int{0, rows / 8, rows / 4, rows / 2, rows}
	for i := 0; i < 4; i++ {
		if cuts[i] < cuts[i+1] {
			h.edges = append(h.edges, [2]int{cuts[i], cuts[i+1]})
		}
	}
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "d0", Type: sqldb.TypeString},
		sqldb.Column{Name: "d1", Type: sqldb.TypeString},
		sqldb.Column{Name: "d2", Type: sqldb.TypeString},
		sqldb.Column{Name: "b0", Type: sqldb.TypeBool},
		sqldb.Column{Name: "k0", Type: sqldb.TypeInt},
		sqldb.Column{Name: "m0", Type: sqldb.TypeFloat},
		sqldb.Column{Name: "m1", Type: sqldb.TypeFloat},
		sqldb.Column{Name: "m2", Type: sqldb.TypeInt},
		sqldb.Column{Name: "s0", Type: sqldb.TypeString},
		sqldb.Column{Name: "w0", Type: sqldb.TypeInt},
		sqldb.Column{Name: "e0", Type: sqldb.TypeInt},
	)
	tab, err := h.DB.CreateTable("t", schema, sqldb.LayoutCol)
	if err != nil {
		return nil, err
	}
	ref, err := h.Ref.CreateTable("t", schema, sqldb.LayoutRow)
	if err != nil {
		return nil, err
	}
	all := make([][]sqldb.Value, rows)
	for i := range all {
		row := []sqldb.Value{
			h.dimValue(0, 0.10),
			h.dimValue(1, 0.08),
			h.dimValue(2, 0),
			h.boolValue(0.12),
			sqldb.Int(int64(h.rng.Intn(5))),
			h.floatValue(0.15),
			h.floatValue(0),
			h.intValue(0.10),
			sqldb.Str(fmt.Sprintf("s%02d", h.rng.Intn(30))),
			sqldb.Int(pick(h.rng, wideInts)),
			h.edgeValue(i, cuts),
		}
		if h.rng.Float64() < 0.05 {
			row[9] = sqldb.Null()
		}
		all[i] = row
	}
	if err := tab.Append(all); err != nil {
		return nil, err
	}
	if err := ref.Append(all); err != nil {
		return nil, err
	}
	return h, nil
}

// edgeValue is column e0 at row i: NULL throughout the first of the four
// ranges cuts delimits, 42 throughout the second, and in the last two a
// few values between 0 and a maximum — rangeCodedSpan in the third, one
// more in the fourth — with both ends pinned to the range's first rows.
func (h *Harness) edgeValue(i int, cuts [5]int) sqldb.Value {
	switch {
	case i < cuts[1]:
		return sqldb.Null()
	case i < cuts[2]:
		return sqldb.Int(42)
	}
	lo, top := cuts[2], int64(rangeCodedSpan)
	if i >= cuts[3] {
		lo, top = cuts[3], rangeCodedSpan+1
	}
	switch i - lo {
	case 0:
		return sqldb.Int(0)
	case 1:
		return sqldb.Int(top)
	}
	if h.rng.Float64() < 0.05 {
		return sqldb.Null()
	}
	return sqldb.Int(pick(h.rng, []int64{0, 17, 40_000, top}))
}

// dimValue picks a dimension value (or NULL with the given probability).
func (h *Harness) dimValue(dim int, nullP float64) sqldb.Value {
	if nullP > 0 && h.rng.Float64() < nullP {
		return sqldb.Null()
	}
	return sqldb.Str(fmt.Sprintf("d%d_%02d", dim, h.rng.Intn(dimCards[dim])))
}

// boolValue picks TRUE/FALSE (or NULL with the given probability).
func (h *Harness) boolValue(nullP float64) sqldb.Value {
	if h.rng.Float64() < nullP {
		return sqldb.Null()
	}
	return sqldb.Bool(h.rng.Intn(2) == 0)
}

// floatValue picks a multiple of 0.25 in [-500, 500] (or NULL). All
// partial sums over such values are exact in float64, so any summation
// order yields identical bits.
func (h *Harness) floatValue(nullP float64) sqldb.Value {
	if nullP > 0 && h.rng.Float64() < nullP {
		return sqldb.Null()
	}
	return sqldb.Float(float64(h.rng.Intn(4001)-2000) * 0.25)
}

// intValue picks an int in [-100, 100] (or NULL).
func (h *Harness) intValue(nullP float64) sqldb.Value {
	if h.rng.Float64() < nullP {
		return sqldb.Null()
	}
	return sqldb.Int(int64(h.rng.Intn(201) - 100))
}

// pick returns one random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// Query is one generated test case. Groups lists its GROUP BY
// expressions in order.
type Query struct {
	SQL    string
	Lo, Hi int
	Groups []string
}

// aggPool is the aggregates generated queries draw from, fast-path
// shapes first and interpreter-only ones last.
var aggPool = []string{
	"COUNT(*)", "COUNT(m0)", "COUNT(s0)", "COUNT(b0)",
	"SUM(m0)", "SUM(m1)", "SUM(m2)",
	"AVG(m0)", "AVG(m1)", "AVG(m2)",
	"MIN(m0)", "MIN(m2)", "MAX(m1)", "MAX(m2)", "MIN(b0)",
	// Interpreter-only shapes:
	"COUNT(DISTINCT d1)", "MIN(s0)", "SUM(m0 + m1)", "AVG(ABS(m2))",
	// Typed distinct sets (float with NULLs, int, bool), which a sharded
	// run unions across children:
	"COUNT(DISTINCT m0)", "COUNT(DISTINCT k0)", "COUNT(DISTINCT b0)",
}

// Gen generates one random grouped-aggregate query with an optional row
// sub-range: one SELECT, or (one time in five) a UNION ALL of several.
func (h *Harness) Gen() Query {
	rng := h.rng
	if rng.Intn(5) == 0 {
		return h.genUnion()
	}

	// GROUP BY: 0-3 distinct grouping expressions.
	nGroups := rng.Intn(4)
	var groups []string
	seen := map[string]bool{}
	for len(groups) < nGroups {
		g := pick(rng, h.groupPool)
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	// The SeeDB combined target/reference flag shape.
	if rng.Float64() < 0.35 {
		groups = append(groups, fmt.Sprintf("CASE WHEN %s THEN 1 ELSE 0 END", h.genPredicate(1)))
	}

	// Aggregates: 1-4, drawn with repetition allowed (duplicates are
	// legal SQL and exercise shared slots).
	nAggs := 1 + rng.Intn(4)
	var aggs []string
	for i := 0; i < nAggs; i++ {
		aggs = append(aggs, pick(rng, aggPool))
	}

	var b strings.Builder
	b.WriteString("SELECT ")
	items := append(append([]string{}, groups...), aggs...)
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM t")

	if rng.Float64() < 0.55 {
		fmt.Fprintf(&b, " WHERE %s", h.genPredicate(1+rng.Intn(2)))
	}
	if len(groups) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(groups, ", "))
	}
	if rng.Float64() < 0.25 {
		having := []string{
			"COUNT(*) > 2", "COUNT(*) >= 1", "SUM(m1) > 0",
			"AVG(m1) < 100", "MIN(m2) < 0", "COUNT(m0) > 1",
		}
		fmt.Fprintf(&b, " HAVING %s", pick(rng, having))
	}
	if rng.Float64() < 0.45 && len(items) > 0 {
		n := 1 + rng.Intn(2)
		var keys []string
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%d", 1+rng.Intn(len(items)))
			if rng.Intn(2) == 0 {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		fmt.Fprintf(&b, " ORDER BY %s", strings.Join(keys, ", "))
	}
	if rng.Float64() < 0.2 {
		fmt.Fprintf(&b, " LIMIT %d", rng.Intn(20))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", rng.Intn(5))
		}
	}

	q := Query{SQL: b.String(), Hi: 0, Groups: groups}
	h.genRange(&q)
	return q
}

// genUnion generates 2-4 grouped SELECTs joined by UNION ALL, in the
// shape of the engine's phase statement and around it: each row leads
// with its branch index, each branch has its own keys and aggregates
// (NULL-padded to the widest branch), and branches share the WHERE and
// the flag or bring their own, so the shared scan meets every mix of
// shared and distinct predicates.
func (h *Harness) genUnion() Query {
	rng := h.rng
	where := h.genPredicate(1 + rng.Intn(2))
	flag := fmt.Sprintf("CASE WHEN %s THEN 1 ELSE 0 END", h.genPredicate(1))
	type branch struct{ items, groups []string }
	branches := make([]branch, 2+rng.Intn(3))
	wheres := make([]string, len(branches))
	width := 0
	for i := range branches {
		br := &branches[i]
		if rng.Intn(4) != 0 {
			br.groups = append(br.groups, pick(rng, h.groupPool))
		}
		switch rng.Intn(4) {
		case 0, 1:
			br.groups = append(br.groups, flag)
		case 2:
			br.groups = append(br.groups, fmt.Sprintf("CASE WHEN %s THEN 1 ELSE 0 END", h.genPredicate(1)))
		}
		br.items = append([]string{fmt.Sprint(i)}, br.groups...)
		for range 1 + rng.Intn(3) {
			// Mostly fast-path aggregates, so most compounds share a scan.
			pool := aggPool[:15]
			if rng.Intn(8) == 0 {
				pool = aggPool
			}
			br.items = append(br.items, pick(rng, pool))
		}
		width = max(width, len(br.items))
		switch rng.Intn(3) {
		case 0:
			wheres[i] = where
		case 1:
			wheres[i] = h.genPredicate(1)
		}
	}
	var parts []string
	for i, br := range branches {
		for len(br.items) < width {
			br.items = append(br.items, "NULL")
		}
		sql := "SELECT " + strings.Join(br.items, ", ") + " FROM t"
		if wheres[i] != "" {
			sql += " WHERE " + wheres[i]
		}
		if len(br.groups) > 0 {
			sql += " GROUP BY " + strings.Join(br.groups, ", ")
		}
		if rng.Intn(6) == 0 {
			sql += " HAVING COUNT(*) > 2"
		}
		parts = append(parts, sql)
	}
	q := Query{SQL: strings.Join(parts, " UNION ALL ")}
	h.genRange(&q)
	return q
}

// genRange gives q a row range: the whole table, or one of the edges.
func (h *Harness) genRange(q *Query) {
	rng := h.rng
	switch rng.Intn(10) {
	case 0, 1, 2: // random sub-range
		q.Lo = rng.Intn(h.rows)
		q.Hi = q.Lo + rng.Intn(h.rows-q.Lo+1)
	case 3: // empty range
		q.Lo = rng.Intn(h.rows)
		q.Hi = q.Lo
	case 4: // single row
		q.Lo = rng.Intn(h.rows)
		q.Hi = q.Lo + 1
	case 5: // one of e0's coding edges
		if len(h.edges) > 0 {
			e := pick(rng, h.edges)
			q.Lo, q.Hi = e[0], e[1]
		}
	}
}

// genPredicate builds a random WHERE-style predicate of n clauses. The
// pool covers every selection-kernel shape over every column type —
// string ordering (dictionary match tables), literal-on-the-left
// comparisons, NULL-literal comparisons, IN with NULL elements, negated
// composites — plus residual-only shapes (column-vs-column, arithmetic,
// function calls) so hybrid kernel+residual filters occur naturally.
func (h *Harness) genPredicate(n int) string {
	rng := h.rng
	clauses := []string{
		"d1 = 'd1_03'", "d0 != 'd0_01'", "d2 = 'd2_17'",
		"m1 > 50.25", "m1 <= -10", "m0 IS NULL", "m0 IS NOT NULL",
		"b0 = TRUE", "b0 IS NULL", "k0 IN (1, 2)", "k0 = 4",
		"m2 BETWEEN -20 AND 35", "m2 NOT BETWEEN 0 AND 10",
		"NOT (d1 = 'd1_00')", "d0 IN ('d0_00', 'd0_02')",
		"m0 > m1", "m2 % 3 = 0",
		// String ordering and membership over dictionary codes.
		"s0 >= 's15'", "d2 < 'd2_20'", "s0 BETWEEN 's05' AND 's20'",
		"s0 NOT IN ('s01', 's07', 's29')",
		// Literal-on-the-left and cross-kind numeric comparisons.
		"14.5 < m2", "0 = k0", "m2 >= -20.5",
		// NULL-comparison edges: never TRUE, under either polarity.
		"d1 = NULL", "m0 != NULL", "NOT (m1 < NULL)",
		"k0 IN (1, NULL, 3)",
		// Bare-column truthiness and negated composites.
		"b0", "NOT b0", "NOT (m1 >= 0.25 AND d1 = 'd1_01')",
		"NOT (b0 = FALSE OR m2 > 50)",
		// Residual-only shapes (closure path inside the workers).
		"ABS(m2) < 50", "m0 <= m1 + 10",
	}
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, pick(rng, clauses))
	}
	op := " AND "
	if rng.Intn(2) == 0 {
		op = " OR "
	}
	return strings.Join(parts, op)
}

// Stats summarizes one differential run.
type Stats struct {
	Queries    int
	Vectorized int // queries the Workers=N run executed on the fast path
	OneWorker  int // queries the Workers=1 run executed on the fast path
	Fallback   int // queries the Workers=N run left to the interpreter
	Kernels    int // selection kernels bound across all vectorized runs
	Residuals  int // predicate conjuncts left on the closure path
	// IntRange and IntDict count the int group keys the vectorized runs
	// range-coded and dictionary-coded.
	IntRange, IntDict int
	// Unions counts the UNION ALL statements generated, and Shared those
	// of them the Workers=N run executed as one shared vectorized scan.
	Unions, Shared int
}

// countUnion records a generated compound and whether it ran shared.
func (st *Stats) countUnion(q Query, res sqldb.ExecStats) {
	if !strings.Contains(q.SQL, " UNION ALL ") {
		return
	}
	st.Unions++
	if res.Vectorized {
		st.Shared++
	}
}

// reference runs q on the row-layout twin: the row interpreter's answer.
func (h *Harness) reference(q Query) (*sqldb.Result, error) {
	return h.Ref.QueryOpts(q.SQL, sqldb.ExecOptions{Lo: q.Lo, Hi: q.Hi})
}

// exec runs q on the column store with the given worker count and
// reports, next to the result, how the vectorized scan coded each of
// q.Groups — the scan span's group_keys attribute; nil when the
// interpreter ran.
func (h *Harness) exec(q Query, workers int) (*sqldb.Result, []string, error) {
	ctx, tr := telemetry.WithTrace(context.Background(), "difftest")
	res, err := h.DB.QueryOpts(q.SQL, sqldb.ExecOptions{Ctx: ctx, Lo: q.Lo, Hi: q.Hi, Workers: workers})
	if err != nil || !res.Stats.Vectorized || len(q.Groups) == 0 {
		return res, nil, err
	}
	scan := tr.Finish().Find("sqldb.scan")
	if scan == nil || scan.Attrs["group_keys"] == "" {
		return res, nil, fmt.Errorf("vectorized run left no group_keys on its sqldb.scan span (sql: %s)", q.SQL)
	}
	return res, strings.Split(scan.Attrs["group_keys"], ","), nil
}

// Run generates and checks n queries, executing each on the column
// store at Workers=1 and at the given worker count and comparing both
// with the row interpreter, and returns an error describing the first
// divergence.
func (h *Harness) Run(n, workers int) (Stats, error) {
	var st Stats
	for i := 0; i < n; i++ {
		q := h.Gen()
		st.Queries++
		ref, err := h.reference(q)
		if err != nil {
			return st, fmt.Errorf("query %d interpreter failed: %v (sql: %s)", i, err, q.SQL)
		}
		one, _, err := h.exec(q, 1)
		if err != nil {
			return st, fmt.Errorf("query %d workers=1 failed: %v (sql: %s)", i, err, q.SQL)
		}
		if one.Stats.Vectorized {
			st.OneWorker++
		}
		if err := equalResults(ref, one); err != nil {
			return st, fmt.Errorf("query %d diverged (workers=1, range [%d,%d)): %v\nsql: %s",
				i, q.Lo, q.Hi, err, q.SQL)
		}
		par, codings, err := h.exec(q, workers)
		if err != nil {
			return st, fmt.Errorf("query %d workers=%d failed: %v (sql: %s)", i, workers, err, q.SQL)
		}
		st.countUnion(q, par.Stats)
		if par.Stats.Vectorized {
			st.Vectorized++
			st.Kernels += par.Stats.SelectionKernels
			st.Residuals += par.Stats.ResidualPredicates
			for gi, coding := range codings {
				switch {
				case !h.intKeys[q.Groups[gi]]:
				case coding == "range":
					st.IntRange++
				case coding == "numdict":
					st.IntDict++
				}
			}
		} else {
			st.Fallback++
		}
		if err := equalResults(ref, par); err != nil {
			return st, fmt.Errorf("query %d diverged (workers=%d, range [%d,%d)): %v\nsql: %s",
				i, workers, q.Lo, q.Hi, err, q.SQL)
		}
	}
	return st, nil
}

// equalResults compares two results exactly, row for row.
func equalResults(a, b *sqldb.Result) error {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d name %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if len(ra) != len(rb) {
			return fmt.Errorf("row %d width %d vs %d", i, len(ra), len(rb))
		}
		for j := range ra {
			if !equalValue(ra[j], rb[j]) {
				return fmt.Errorf("row %d col %d: %s (%v) vs %s (%v)",
					i, j, ra[j].String(), ra[j].Kind, rb[j].String(), rb[j].Kind)
			}
		}
	}
	if a.Stats.RowsScanned != b.Stats.RowsScanned {
		return fmt.Errorf("rows scanned %d vs %d", a.Stats.RowsScanned, b.Stats.RowsScanned)
	}
	if a.Stats.Groups != b.Stats.Groups {
		return fmt.Errorf("groups %d vs %d", a.Stats.Groups, b.Stats.Groups)
	}
	return nil
}

// equalValue is bit-exact Value equality: same kind and identical
// payload bits (distinguishing NaN payloads and -0.0 from +0.0).
func equalValue(a, b sqldb.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqldb.KindNull:
		return true
	case sqldb.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case sqldb.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}
