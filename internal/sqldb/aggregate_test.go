package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAggStateMergeEqualsSequential pins the mergeability invariant: for
// every aggregate, folding rows into two accumulators and merging them
// must equal folding all rows into one. (Partition-parallel aggregation
// depends on this.)
func TestAggStateMergeEqualsSequential(t *testing.T) {
	schema := MustSchema(Column{Name: "m", Type: TypeFloat})
	rng := rand.New(rand.NewSource(31))

	specs := []struct {
		name string
		sql  string
	}{
		{"count-star", "COUNT(*)"},
		{"count", "COUNT(m)"},
		{"count-distinct", "COUNT(DISTINCT m)"},
		{"sum", "SUM(m)"},
		{"avg", "AVG(m)"},
		{"min", "MIN(m)"},
		{"max", "MAX(m)"},
	}
	for _, sp := range specs {
		stmt := mustParse(t, "SELECT "+sp.sql+" FROM t")
		fe := stmt.Items[0].Expr.(*FuncExpr)
		spec, err := newAggSpec(fe, schema)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(40)
			rows := make([][]Value, n)
			for i := range rows {
				if rng.Intn(8) == 0 {
					rows[i] = []Value{Null()}
				} else {
					rows[i] = []Value{Float(float64(rng.Intn(10)))}
				}
			}
			cut := rng.Intn(n + 1)

			var whole, left, right aggState
			for i, r := range rows {
				whole.update(&spec, rowSlice(r))
				if i < cut {
					left.update(&spec, rowSlice(r))
				} else {
					right.update(&spec, rowSlice(r))
				}
			}
			left.merge(&spec, &right)

			a, b := whole.final(&spec), left.final(&spec)
			if a.Kind != b.Kind {
				t.Fatalf("%s trial %d: kinds differ: %v vs %v", sp.name, trial, a, b)
			}
			af, aok := a.AsFloat()
			bf, bok := b.AsFloat()
			if aok != bok || (aok && math.Abs(af-bf) > 1e-9) {
				t.Fatalf("%s trial %d: merged %v != sequential %v", sp.name, trial, b, a)
			}
		}
	}
}

// TestAggStateMergeEmptySides: merging with an empty accumulator is the
// identity in both directions.
func TestAggStateMergeEmptySides(t *testing.T) {
	schema := MustSchema(Column{Name: "m", Type: TypeFloat})
	stmt := mustParse(t, "SELECT MIN(m) FROM t")
	spec, err := newAggSpec(stmt.Items[0].Expr.(*FuncExpr), schema)
	if err != nil {
		t.Fatal(err)
	}
	var full, empty aggState
	full.update(&spec, rowSlice([]Value{Float(5)}))
	full.update(&spec, rowSlice([]Value{Float(2)}))

	merged := full
	merged.merge(&spec, &empty)
	if v := merged.final(&spec); v.F != 2 {
		t.Errorf("merge with empty changed result: %v", v)
	}
	var fresh aggState
	fresh.merge(&spec, &full)
	if v := fresh.final(&spec); v.F != 2 {
		t.Errorf("merge into empty lost state: %v", v)
	}
	// Fully empty MIN finalizes to NULL.
	var never aggState
	if v := never.final(&spec); !v.IsNull() {
		t.Errorf("empty MIN = %v, want NULL", v)
	}
}

// TestPostAggregationExpressionForms exercises the grouped-query
// rewriter over every expression node type.
func TestPostAggregationExpressionForms(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, `SELECT sex,
			CASE WHEN AVG(hours) > 36 THEN 'hi' ELSE 'lo' END,
			NOT (COUNT(*) > 2),
			AVG(hours) BETWEEN 30 AND 40,
			COUNT(*) IN (2, 3),
			SUM(income) IS NULL,
			-(MIN(hours)),
			ABS(0 - MAX(hours))
			FROM census GROUP BY sex ORDER BY sex`)
		if len(rows) != 2 {
			t.Fatalf("got %d rows", len(rows))
		}
		f := rows[0] // F: avg hours 35, count 3, min 30, max 40
		if f[1].S != "lo" || f[2].Truthy() || !f[3].Truthy() || !f[4].Truthy() || f[5].Truthy() {
			t.Errorf("F row = %v", f)
		}
		if f[6].I != -30 || f[7].I != 40 {
			t.Errorf("F arithmetic over aggregates = %v", f)
		}
		m := rows[1] // M: avg hours ≈ 38.3
		if m[1].S != "hi" {
			t.Errorf("M row = %v", m)
		}
	})
}

// TestLeadingDotNumber covers the ".5" literal form.
func TestLeadingDotNumber(t *testing.T) {
	db := buildDB(t, LayoutCol)
	res, err := db.Query("SELECT COUNT(*) FROM census WHERE income > .5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 5 {
		t.Errorf("count = %v, want 5", res.Rows[0][0])
	}
}

// TestLayoutAccessors covers the trivial layout methods through the
// interface.
func TestLayoutAccessors(t *testing.T) {
	row := NewRowStore("r", testSchema())
	col := NewColStore("c", testSchema())
	if row.Layout() != LayoutRow || col.Layout() != LayoutCol {
		t.Error("layout accessors wrong")
	}
	if row.Layout().String() != "ROW" || col.Layout().String() != "COL" {
		t.Error("layout names wrong")
	}
}

// TestPreparedSQLRoundTrip covers PreparedQuery.SQL.
func TestPreparedSQLRoundTrip(t *testing.T) {
	db := buildDB(t, LayoutCol)
	q, err := db.Prepare("select sex, count(*) from census group by sex")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT sex, COUNT(*) FROM census GROUP BY sex"
	if q.SQL() != want {
		t.Errorf("SQL() = %q, want %q", q.SQL(), want)
	}
}

// TestCorruptTupleDetection: a row store scan must fail loudly on
// corrupted tuple bytes rather than returning garbage.
func TestCorruptTupleDetection(t *testing.T) {
	rs := NewRowStore("t", MustSchema(Column{Name: "x", Type: TypeInt}))
	if err := rs.AppendRow([]Value{Int(7)}); err != nil {
		t.Fatal(err)
	}
	rs.data[0] = 99 // clobber the field tag
	err := rs.ScanRange(0, 1, nil, func(RowView) error { return nil })
	if err == nil {
		t.Error("corrupt tuple should fail the scan")
	}
}

// distinctCase yields one value per row of the identity test's table, of
// whichever kind k names; no ELSE, so k = 4 yields NULL.
const distinctCase = "CASE WHEN k = 0 THEN i WHEN k = 1 THEN f WHEN k = 2 THEN b WHEN k = 3 THEN s END"

// TestCountDistinctIdentity: COUNT(DISTINCT) tells values apart exactly
// as appendKey does — Int(1), Float(1) and Bool(true) are three values
// (through a mixed-kind CASE), ±0, two NaN payloads and ±Inf are six, and
// "" is a value where NULL is none — in the interpreter on both layouts,
// through aggState.merge, and through ShardPlan.Merge over 1–4 children
// that hold overlapping values.
func TestCountDistinctIdentity(t *testing.T) {
	vals := []Value{Int(1), Float(1), Bool(true), Int(0), Bool(false), Str(""), Str("1"), Null()}
	for _, f := range specialFloats {
		vals = append(vals, Float(f))
	}
	kindSel := map[ValueKind]int64{KindInt: 0, KindFloat: 1, KindBool: 2, KindString: 3, KindNull: 4}
	schema := MustSchema(
		Column{Name: "g", Type: TypeInt},
		Column{Name: "k", Type: TypeInt},
		Column{Name: "i", Type: TypeInt},
		Column{Name: "f", Type: TypeFloat},
		Column{Name: "b", Type: TypeBool},
		Column{Name: "s", Type: TypeString},
	)
	rng := rand.New(rand.NewSource(45))
	var rows [][]Value
	// oracle[g][a] is the appendKey set of aggregate a's non-NULL
	// arguments in group g: the CASE, f and s.
	oracle := map[int64][3]map[string]bool{}
	for r := 0; r < 300; r++ {
		v, g := vals[rng.Intn(len(vals))], int64(rng.Intn(3))
		row := []Value{Int(g), Int(kindSel[v.Kind]), Null(), Null(), Null(), Null()}
		if v.Kind != KindNull {
			row[2+kindSel[v.Kind]] = v
		}
		rows = append(rows, row)
		sets, ok := oracle[g]
		if !ok {
			sets = [3]map[string]bool{{}, {}, {}}
			oracle[g] = sets
		}
		for a, arg := range []Value{v, row[3], row[5]} {
			if !arg.IsNull() {
				sets[a][string(arg.appendKey(nil))] = true
			}
		}
	}
	const sql = "SELECT g, COUNT(DISTINCT " + distinctCase + "), COUNT(DISTINCT f), COUNT(DISTINCT s) FROM v GROUP BY g"
	check := func(what string, res *Result) {
		t.Helper()
		if len(res.Rows) != len(oracle) {
			t.Fatalf("%s: %d groups, want %d", what, len(res.Rows), len(oracle))
		}
		for _, row := range res.Rows {
			for a, sets := range oracle[row[0].I] {
				if got, want := row[1+a].I, int64(len(sets)); row[1+a].Kind != KindInt || got != want {
					t.Errorf("%s: group %d aggregate %d = %v, appendKey oracle %d", what, row[0].I, a, row[1+a], want)
				}
			}
		}
	}
	load := func(rows [][]Value, layout Layout) *DB {
		db := NewDB()
		tab, err := db.CreateTable("v", schema, layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := tab.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		res, err := load(rows, layout).Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		check("interpreter/"+layout.String(), res)
	}

	// aggState.merge: two accumulators over a split of the rows, and
	// merges into and from an empty one, against the global oracle.
	spec, err := newAggSpec(mustParse(t, "SELECT COUNT(DISTINCT "+distinctCase+") FROM v").Items[0].Expr.(*FuncExpr), schema)
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]bool{}
	for _, sets := range oracle {
		for k := range sets[0] {
			all[k] = true
		}
	}
	for _, cut := range []int{0, 1, len(rows) / 2, len(rows)} {
		var left, right, empty aggState
		for i, row := range rows {
			if i < cut {
				left.update(&spec, rowSlice(row))
			} else {
				right.update(&spec, rowSlice(row))
			}
		}
		left.merge(&spec, &right)
		left.merge(&spec, &empty)
		empty.merge(&spec, &left)
		for _, s := range []*aggState{&left, &empty} {
			if got := s.final(&spec); got.I != int64(len(all)) {
				t.Errorf("aggState.merge at cut %d: %v distinct, appendKey oracle %d", cut, got, len(all))
			}
		}
	}

	// ShardPlan.Merge: rows dealt round-robin, so every child holds
	// values the others hold too.
	stmt := mustParse(t, sql)
	sp, err := NewShardPlan(stmt, schema)
	if err != nil {
		t.Fatal(err)
	}
	for children := 1; children <= 4; children++ {
		parts := make([]ShardPart, children)
		for c := range parts {
			var mine [][]Value
			for r := c; r < len(rows); r += children {
				mine = append(mine, rows[r])
			}
			res, err := load(mine, LayoutCol).Query(sp.ChildSQL())
			if err != nil {
				t.Fatal(err)
			}
			parts[c] = ShardPart{Rows: res.Rows, Groups: res.Stats.Groups}
		}
		res, err := sp.Merge(parts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("ShardPlan.Merge/%d children", children), res)
	}
}
