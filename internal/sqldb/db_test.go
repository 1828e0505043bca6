package sqldb

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCreateDropTable(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t", testSchema(), LayoutRow); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", testSchema(), LayoutRow); err == nil {
		t.Error("duplicate (case-insensitive) create should fail")
	}
	if _, ok := db.Table("t"); !ok {
		t.Error("table lookup failed")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames = %v", names)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("t"); err == nil {
		t.Error("double drop should fail")
	}
	if _, err := db.CreateTable("", testSchema(), LayoutRow); err == nil {
		t.Error("empty table name should fail")
	}
	if _, err := db.CreateTable("x", testSchema(), Layout(9)); err == nil {
		t.Error("bad layout should fail")
	}
}

func TestAppendRowErrors(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		db := NewDB()
		tab, _ := db.CreateTable("t", testSchema(), layout)
		if err := tab.Append([][]Value{{Str("F")}}); err == nil {
			t.Errorf("[%v] wrong arity should fail", layout)
		}
		if err := tab.Append([][]Value{{Str("F"), Str("not-int"), Float(1), Int(1)}}); err == nil {
			t.Errorf("[%v] type mismatch should fail", layout)
		}
		if !strings.Contains(tab.Append([][]Value{{Str("F"), Str("x"), Float(1), Int(1)}}).Error(), "column") {
			t.Errorf("[%v] error should name the column", layout)
		}
	}
}

func TestNullsInColumnStore(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateTable("t", MustSchema(
		Column{Name: "a", Type: TypeString},
		Column{Name: "m", Type: TypeFloat},
	), LayoutCol)
	rows := [][]Value{
		{Str("x"), Float(1)},
		{Str("y"), Null()},
		{Null(), Float(3)},
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryOpts("SELECT COUNT(*), COUNT(m), COUNT(a) FROM t", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].I != 3 || r[1].I != 2 || r[2].I != 2 {
		t.Errorf("counts = %v, want [3 2 2]", r)
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := buildDB(t, LayoutCol)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.QueryOpts("SELECT sex, AVG(income), SUM(hours) FROM census GROUP BY sex", ExecOptions{})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentQueriesRowStore(t *testing.T) {
	db := buildDB(t, LayoutRow)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.QueryOpts("SELECT region, COUNT(*) FROM census GROUP BY region", ExecOptions{})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStatsComputation(t *testing.T) {
	db := buildDB(t, LayoutCol)
	ts, err := db.StatsContext(context.Background(), "census")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 6 {
		t.Errorf("rows = %d", ts.Rows)
	}
	sex, ok := ts.Column("sex")
	if !ok || sex.Distinct != 2 {
		t.Errorf("sex distinct = %+v", sex)
	}
	// A FLOAT column counts the table's rows, its NULL income included.
	income, _ := ts.Column("INCOME")
	if income.Distinct != 6 || income.Type != TypeFloat || income.Name != "income" {
		t.Errorf("income stats = %+v", income)
	}
	if _, ok := ts.Column("nosuch"); ok {
		t.Error("lookup of missing column should fail")
	}
	// Cached on second call (same pointer).
	ts2, err := db.StatsContext(context.Background(), "census")
	if err != nil || ts2 != ts {
		t.Error("stats should be cached")
	}
	if _, err := db.StatsContext(context.Background(), "nosuch"); err == nil {
		t.Error("stats of missing table should fail")
	}
}

// TestStatsMemoIsOneSlotPerTable: the statistics state must not grow
// with ingest batches or reloads — appends extend the table's one
// state, and dropping the table drops it.
func TestStatsMemoIsOneSlotPerTable(t *testing.T) {
	db := buildDB(t, LayoutCol)
	tab, _ := db.Table("census")
	row := make([]Value, tab.Schema().NumColumns())
	if err := tab.ScanRange(0, 1, nil, func(rv RowView) error {
		for i := range row {
			row[i] = rv.Value(i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tab.Append([][]Value{row}); err != nil {
			t.Fatal(err)
		}
		ts, err := db.StatsContext(context.Background(), "census")
		if err != nil {
			t.Fatal(err)
		}
		if ts.Rows != tab.NumRows() {
			t.Fatalf("round %d: stats describe %d rows, table has %d", i, ts.Rows, tab.NumRows())
		}
	}
	if n := len(db.stats); n != 1 {
		t.Errorf("%d stats entries retained after 100 append+Stats rounds, want 1", n)
	}
	if err := db.DropTable("census"); err != nil {
		t.Fatal(err)
	}
	if n := len(db.stats); n != 0 {
		t.Errorf("%d stats entries retained after DropTable, want 0", n)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Type: TypeInt}); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "A", Type: TypeInt}); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema(Column{Name: "", Type: TypeInt})
}

func TestSchemaLookupAndString(t *testing.T) {
	s := testSchema()
	if i, ok := s.Lookup("SEX"); !ok || i != 0 {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("missing column lookup should fail")
	}
	if s.NumColumns() != 4 {
		t.Error("NumColumns wrong")
	}
	str := s.String()
	if !strings.Contains(str, "sex TEXT") || !strings.Contains(str, "income FLOAT") {
		t.Errorf("schema string = %s", str)
	}
	cols := s.Columns()
	cols[0].Name = "mutated"
	if s.Column(0).Name != "sex" {
		t.Error("Columns() must return a copy")
	}
}

// TestParseLayout pins the one layout parser: row or col (alias column)
// in any case; anything else — rows, the empty string — is an error.
func TestParseLayout(t *testing.T) {
	for in, want := range map[string]Layout{"row": LayoutRow, "ROW": LayoutRow, "col": LayoutCol, "Column": LayoutCol} {
		if got, err := ParseLayout(in); err != nil || got != want {
			t.Errorf("ParseLayout(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"rows", "bogus", ""} {
		if _, err := ParseLayout(in); err == nil || !strings.Contains(err.Error(), "unknown layout") {
			t.Errorf("ParseLayout(%q) error = %v, want unknown layout", in, err)
		}
	}
}

func TestTableVersion(t *testing.T) {
	db := NewDB()
	if _, ok := db.TableVersion("t"); ok {
		t.Fatal("version of missing table")
	}
	tab, err := db.CreateTable("t", MustSchema(Column{Name: "a", Type: TypeInt}), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	v1, ok := db.TableVersion("t")
	if !ok {
		t.Fatal("no version after create")
	}
	if err := tab.Append([][]Value{{Int(1)}}); err != nil {
		t.Fatal(err)
	}
	v2, _ := db.TableVersion("t")
	if v2 == v1 {
		t.Fatalf("append did not change version (%s)", v2)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", MustSchema(Column{Name: "a", Type: TypeInt}), LayoutRow); err != nil {
		t.Fatal(err)
	}
	v3, _ := db.TableVersion("T") // case-insensitive
	if v3 == v1 || v3 == v2 {
		t.Fatalf("drop+recreate reused version %s (had %s, %s)", v3, v1, v2)
	}
}

func TestTableVersionDistinctAcrossDBs(t *testing.T) {
	// Two DB instances with identically named, identically sized tables
	// must produce different version tokens: a cache shared between
	// engines over different databases must never serve one dataset's
	// results for the other.
	mk := func(val int64) (*DB, string) {
		db := NewDB()
		tab, err := db.CreateTable("t", MustSchema(Column{Name: "a", Type: TypeInt}), LayoutCol)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Append([][]Value{{Int(val)}}); err != nil {
			t.Fatal(err)
		}
		v, _ := db.TableVersion("t")
		return db, v
	}
	_, v1 := mk(1)
	_, v2 := mk(2)
	if v1 == v2 {
		t.Fatalf("same version token %q across DB instances", v1)
	}
}

func TestColStoreFailedAppendLeavesTableUnchanged(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("t", MustSchema(
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeFloat},
	), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append([][]Value{{Int(1), Float(1.5)}}); err != nil {
		t.Fatal(err)
	}
	v1, _ := db.TableVersion("t")
	// Column a coerces fine, column b fails: nothing may stick.
	if err := tab.Append([][]Value{{Int(2), Str("not-a-float")}}); err == nil {
		t.Fatal("bad append succeeded")
	}
	if v2, _ := db.TableVersion("t"); v2 != v1 {
		t.Errorf("failed append changed version %s -> %s", v1, v2)
	}
	if err := tab.Append([][]Value{{Int(3), Float(3.5)}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryOpts("SELECT a, b FROM t", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// The second visible row must be the third append's values, not a
	// leftover from the failed row.
	if res.Rows[1][0].I != 3 || res.Rows[1][1].F != 3.5 {
		t.Errorf("row 2 = %v %v, want 3 3.5 (column vectors misaligned)", res.Rows[1][0], res.Rows[1][1])
	}
}
