package sqlbe

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
	"seedb/internal/sqldriver"
)

// newBackend builds an embedded store, loads a small table and wraps it
// through database/sql (the sqldriver stub), which is exactly how the
// conformance tests exercise external-store execution without cgo.
func newBackend(t *testing.T) (*Backend, *sqldb.DB) {
	t.Helper()
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "region", Type: sqldb.TypeString},
		sqldb.Column{Name: "ok", Type: sqldb.TypeBool},
		sqldb.Column{Name: "qty", Type: sqldb.TypeInt},
		sqldb.Column{Name: "price", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("sales", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]sqldb.Value{
		{sqldb.Str("east"), sqldb.Bool(true), sqldb.Int(1), sqldb.Float(1.5)},
		{sqldb.Str("west"), sqldb.Bool(false), sqldb.Int(2), sqldb.Null()},
		{sqldb.Str("east"), sqldb.Bool(true), sqldb.Int(3), sqldb.Float(3.5)},
		{sqldb.Str("west"), sqldb.Bool(true), sqldb.Int(4), sqldb.Float(4.5)},
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	return New(sqldriver.Open(db), Options{}), db
}

func TestIntrospection(t *testing.T) {
	be, _ := newBackend(t)
	if be.Name() != "sql" {
		t.Errorf("Name = %q", be.Name())
	}
	caps := be.Capabilities()
	if caps.SupportsPhasedExecution {
		t.Errorf("capabilities = %+v, want none", caps)
	}

	ti, err := be.TableInfo(context.Background(), "sales")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Rows != 4 || ti.Layout != backend.LayoutRow {
		t.Errorf("TableInfo = %+v", ti)
	}
	wantTypes := map[string]backend.ColumnType{
		"region": backend.TypeString,
		"ok":     backend.TypeBool,
		"qty":    backend.TypeInt,
		"price":  backend.TypeFloat,
	}
	for name, want := range wantTypes {
		c, ok := ti.Lookup(name)
		if !ok || c.Type != want {
			t.Errorf("column %s = %+v (ok=%v), want type %v", name, c, ok, want)
		}
	}
	if _, err := be.TableInfo(context.Background(), "missing"); err == nil {
		t.Error("TableInfo(missing) should error")
	}
}

func TestTableStats(t *testing.T) {
	be, _ := newBackend(t)
	ts, err := be.TableStats(context.Background(), "sales")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 4 {
		t.Errorf("rows = %d", ts.Rows)
	}
	if c, _ := ts.Column("region"); c.Distinct != 2 {
		t.Errorf("region distinct = %d, want 2", c.Distinct)
	}
	if c, _ := ts.Column("price"); c.Distinct != 4 { // FLOAT: the row count
		t.Errorf("price distinct = %d, want the row count 4", c.Distinct)
	}
	if _, err := be.TableStats(context.Background(), "missing"); err == nil {
		t.Error("TableStats(missing) should error")
	}
}

func TestExec(t *testing.T) {
	be, _ := newBackend(t)
	rows, stats, err := be.Exec(context.Background(),
		"SELECT region, CASE WHEN qty > 2 THEN 1 ELSE 0 END AS __seedb_flag, SUM(price), COUNT(price) "+
			"FROM sales GROUP BY region, CASE WHEN qty > 2 THEN 1 ELSE 0 END",
		backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 4 || stats.Groups != 4 || stats.Vectorized {
		t.Errorf("rows=%d stats=%+v", len(rows.Rows), stats)
	}
	// Values must round-trip as engine scalars usable by the merger.
	for _, r := range rows.Rows {
		if r[0].Kind != sqldb.KindString {
			t.Errorf("group key kind = %v", r[0].Kind)
		}
		if !r[1].Truthy() && r[1].IsNull() {
			t.Errorf("flag column came back NULL")
		}
	}

	// Row ranges must be rejected, not silently widened.
	_, _, err = be.Exec(context.Background(), "SELECT region FROM sales", backend.ExecOptions{Lo: 0, Hi: 2})
	if err == nil || !strings.Contains(err.Error(), "row-range") {
		t.Errorf("want row-range rejection, got %v", err)
	}

	// Non-SELECT statements must be rejected: the backend is read-only
	// whatever surface forwards query text to it.
	_, _, err = be.Exec(context.Background(), "  drop table sales", backend.ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("want read-only rejection, got %v", err)
	}
}

func TestCheckReadOnly(t *testing.T) {
	for _, ok := range []string{
		"SELECT region FROM sales",
		"  select 1  ",
		"SELECT region FROM sales WHERE note = 'a;b';",
		"SELECT region FROM sales WHERE note = 'it''s; fine'",
	} {
		if err := checkReadOnly(ok); err != nil {
			t.Errorf("checkReadOnly(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{
		"DROP TABLE sales",
		"UPDATE sales SET qty = 0",
		"SELECT 1; DROP TABLE sales",
		"SELECT 1;DELETE FROM sales;",
	} {
		if err := checkReadOnly(bad); err == nil {
			t.Errorf("checkReadOnly(%q) should reject", bad)
		}
	}
}

func TestCoerceNumeric(t *testing.T) {
	if v, err := coerceNumeric(sqldb.Str("42"), backend.TypeInt); err != nil || v.Kind != sqldb.KindInt || v.I != 42 {
		t.Errorf("int coercion = %+v, %v", v, err)
	}
	// Declared-int values wider than int64 (or decimal) fall to float.
	if v, err := coerceNumeric(sqldb.Str("1.5"), backend.TypeInt); err != nil || v.Kind != sqldb.KindFloat || v.F != 1.5 {
		t.Errorf("int→float coercion = %+v, %v", v, err)
	}
	if v, err := coerceNumeric(sqldb.Str("123.4500"), backend.TypeFloat); err != nil || v.F != 123.45 {
		t.Errorf("float coercion = %+v, %v", v, err)
	}
	// Declared numeric that cannot parse must fail loudly, not fold as
	// a silently-skipped string.
	if _, err := coerceNumeric(sqldb.Str("abc"), backend.TypeFloat); err == nil {
		t.Error("unparseable declared-numeric value should error")
	}
	// Declared strings pass through untouched.
	if v, err := coerceNumeric(sqldb.Str("02134"), backend.TypeString); err != nil || v.S != "02134" {
		t.Errorf("string passthrough = %+v, %v", v, err)
	}
}

// TestIdentifierValidation: request-supplied table names are
// interpolated into introspection SQL and must not be able to smuggle
// subqueries (or anything else) into the store.
func TestIdentifierValidation(t *testing.T) {
	be, _ := newBackend(t)
	for _, bad := range []string{
		"(SELECT * FROM sales) s",
		"sales; DROP TABLE sales",
		"sales--",
		"sa les",
		"",
	} {
		if _, err := be.TableInfo(context.Background(), bad); err == nil {
			t.Errorf("TableInfo(%q) should reject the identifier", bad)
		}
	}
	// Schema-qualified names are legitimate external-store identifiers.
	if err := checkIdent("table", "analytics.sales"); err != nil {
		t.Errorf("qualified name rejected: %v", err)
	}
}

func TestVersioning(t *testing.T) {
	be, _ := newBackend(t)
	v1, ok := be.TableVersion(context.Background(), "sales")
	if !ok {
		t.Fatal("no version for sales")
	}
	v2, _ := be.TableVersion(context.Background(), "sales")
	if v1 != v2 {
		t.Errorf("version unstable without changes: %q vs %q", v1, v2)
	}
	be.BumpVersion()
	v3, _ := be.TableVersion(context.Background(), "sales")
	if v3 == v1 {
		t.Error("BumpVersion did not change the token")
	}
	if _, ok := be.TableVersion(context.Background(), "missing"); ok {
		t.Error("TableVersion(missing) should report absent")
	}

	custom := New(nil, Options{Version: func(table string) (string, bool) {
		return "wm-42", table == "sales"
	}})
	if v, ok := custom.TableVersion(context.Background(), "sales"); !ok || v != "wm-42" {
		t.Errorf("custom version = %q %v", v, ok)
	}
	// The Backend contract: a cancelled ctx reports the table absent,
	// even when the custom watermark function needs no store round-trip.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if v, ok := custom.TableVersion(cancelled, "sales"); ok {
		t.Errorf("cancelled ctx reported version %q, want absent", v)
	}
}

// TestCustomVersionRefreshesIntrospection: with Options.Version, a new
// watermark must invalidate the memoized introspection too — not only
// the result cache.
func TestCustomVersionRefreshesIntrospection(t *testing.T) {
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "g", Type: sqldb.TypeString},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("t", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append([][]sqldb.Value{{sqldb.Str("a"), sqldb.Float(1)}}); err != nil {
		t.Fatal(err)
	}
	watermark := "w1"
	be := New(sqldriver.Open(db), Options{Version: func(string) (string, bool) {
		return watermark, true
	}})

	if ti, err := be.TableInfo(context.Background(), "t"); err != nil || ti.Rows != 1 {
		t.Fatalf("TableInfo = %+v, %v", ti, err)
	}
	if ts, err := be.TableStats(context.Background(), "t"); err != nil {
		t.Fatal(err)
	} else if c, _ := ts.Column("g"); c.Distinct != 1 {
		t.Fatalf("g distinct = %d", c.Distinct)
	}

	if err := tab.Append([][]sqldb.Value{{sqldb.Str("b"), sqldb.Float(2)}}); err != nil {
		t.Fatal(err)
	}
	// Same watermark → memo still serves the old count.
	if ti, _ := be.TableInfo(context.Background(), "t"); ti.Rows != 1 {
		t.Errorf("same-watermark rows = %d, want memoized 1", ti.Rows)
	}
	// New watermark → full re-introspection.
	watermark = "w2"
	if ti, _ := be.TableInfo(context.Background(), "t"); ti.Rows != 2 {
		t.Errorf("new-watermark rows = %d, want 2", ti.Rows)
	}
	if ts, err := be.TableStats(context.Background(), "t"); err != nil {
		t.Fatal(err)
	} else if c, _ := ts.Column("g"); c.Distinct != 2 {
		t.Errorf("new-watermark g distinct = %d, want 2", c.Distinct)
	}
}

// TestArbitraryDoubleRoundTrip pins the driver-value float path on
// non-representable doubles. The conformance dataset restricts floats
// to exactly-summable quarter multiples (so partition-merging backends
// can be held bit-identical), which means conformance no longer pushes
// long-mantissa doubles through the database/sql conversion layer —
// this test keeps that coverage: the same serial query over the same
// rows must produce bit-identical aggregates through sqlbe and through
// the embedded adapter.
func TestArbitraryDoubleRoundTrip(t *testing.T) {
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "g", Type: sqldb.TypeString},
		sqldb.Column{Name: "x", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("f", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		x := sqldb.Float(rng.NormFloat64() * 1e3)
		if i%17 == 0 {
			x = sqldb.Null()
		}
		row := []sqldb.Value{sqldb.Str(fmt.Sprintf("g%d", i%7)), x}
		if err := tab.Append([][]sqldb.Value{row}); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	query := "SELECT g, SUM(x), AVG(x), MIN(x), MAX(x), COUNT(x) FROM f GROUP BY g ORDER BY g"
	ext := New(sqldriver.Open(db), Options{})
	got, _, err := ext.Exec(ctx, query, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := backend.NewEmbedded(db).Exec(ctx, query, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) || len(got.Rows) == 0 {
		t.Fatalf("rows = %d, want %d (nonzero)", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Kind != w.Kind {
				t.Fatalf("row %d col %d kind %v, want %v", i, j, g.Kind, w.Kind)
			}
			if w.Kind == sqldb.KindFloat && math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Errorf("row %d col %d float bits %x, want %x (%v vs %v)",
					i, j, math.Float64bits(g.F), math.Float64bits(w.F), g.F, w.F)
			} else if w.Kind != sqldb.KindFloat && g.String() != w.String() {
				t.Errorf("row %d col %d = %s, want %s", i, j, g, w)
			}
		}
	}
}
