package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

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
	res, err := db.QueryOpts("SELECT COUNT(*) FROM census WHERE income > .5", ExecOptions{})
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

// TestCorruptTupleDetection: a row store scan must fail loudly on
// corrupted tuple bytes rather than returning garbage.
func TestCorruptTupleDetection(t *testing.T) {
	rs := NewRowStore("t", MustSchema(Column{Name: "x", Type: TypeInt}))
	if err := rs.Append([][]Value{{Int(7)}}); err != nil {
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
// as AppendKey does — Int(1), Float(1) and Bool(true) are three values
// (through a mixed-kind CASE), ±0, two NaN payloads and ±Inf are six, and
// "" is a value where NULL is none — in the interpreter on both layouts
// and through ShardPlan.Merge over 1–4 children that hold overlapping
// values. Table statistics count the INT, BOOL and TEXT columns by the
// same identity, and give the FLOAT column the row count.
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
	// oracle[g][a] is the AppendKey set of aggregate a's non-NULL
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
				sets[a][string(arg.AppendKey(nil))] = true
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
					t.Errorf("%s: group %d aggregate %d = %v, AppendKey oracle %d", what, row[0].I, a, row[1+a], want)
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
		if err := tab.Append(rows); err != nil {
			t.Fatal(err)
		}
		return db
	}

	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		res, err := load(rows, layout).QueryOpts(sql, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check("interpreter/"+layout.String(), res)
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
			res, err := load(mine, LayoutCol).QueryOpts(sp.ChildSQL(), ExecOptions{})
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

	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		ts, err := load(rows, layout).StatsContext(context.Background(), "v")
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range ts.Columns {
			want := len(rows)
			if c.Type != TypeFloat {
				keys := map[string]bool{}
				for _, row := range rows {
					if !row[ci].IsNull() {
						keys[string(row[ci].AppendKey(nil))] = true
					}
				}
				want = len(keys)
			}
			if c.Distinct != want {
				t.Errorf("statistics/%v: column %s distinct = %d, want %d", layout, c.Name, c.Distinct, want)
			}
		}
	}
}
