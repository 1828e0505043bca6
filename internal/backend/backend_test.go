package backend

import (
	"context"
	"errors"
	"strings"
	"testing"

	"seedb/internal/sqldb"
)

// buildDB creates an embedded database with one small column-store table.
func buildDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "region", Type: sqldb.TypeString},
		sqldb.Column{Name: "qty", Type: sqldb.TypeInt},
		sqldb.Column{Name: "price", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("sales", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]sqldb.Value{
		{sqldb.Str("east"), sqldb.Int(1), sqldb.Float(1.5)},
		{sqldb.Str("west"), sqldb.Int(2), sqldb.Float(2.5)},
		{sqldb.Str("east"), sqldb.Int(3), sqldb.Float(3.5)},
		{sqldb.Str("west"), sqldb.Int(4), sqldb.Null()},
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEmbeddedTableInfo(t *testing.T) {
	db := buildDB(t)
	be := NewEmbedded(db)
	if be.Name() != "sqldb" {
		t.Errorf("Name = %q", be.Name())
	}
	caps := be.Capabilities()
	if !caps.SupportsPhasedExecution {
		t.Errorf("embedded capabilities = %+v, want all true", caps)
	}
	ti, err := be.TableInfo(context.Background(), "sales")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Name != "sales" || ti.Rows != 4 || ti.Layout != LayoutCol {
		t.Errorf("TableInfo = %+v", ti)
	}
	if len(ti.Columns) != 3 || ti.Columns[0].Name != "region" || ti.Columns[0].Type != TypeString {
		t.Errorf("Columns = %+v", ti.Columns)
	}
	if c, ok := ti.Lookup("PRICE"); !ok || c.Type != TypeFloat {
		t.Errorf("Lookup(PRICE) = %+v %v", c, ok)
	}
	if _, ok := ti.Lookup("nope"); ok {
		t.Error("Lookup(nope) should miss")
	}
	if _, err := be.TableInfo(context.Background(), "missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("TableInfo(missing) = %v, want ErrNoTable", err)
	}
}

func TestEmbeddedTableVersionChangesOnAppend(t *testing.T) {
	db := buildDB(t)
	be := NewEmbedded(db)
	v1, ok := be.TableVersion(context.Background(), "sales")
	if !ok || v1 == "" {
		t.Fatalf("TableVersion = %q %v", v1, ok)
	}
	tab, _ := db.Table("sales")
	if err := tab.Append([][]sqldb.Value{{sqldb.Str("north"), sqldb.Int(9), sqldb.Float(9)}}); err != nil {
		t.Fatal(err)
	}
	v2, _ := be.TableVersion(context.Background(), "sales")
	if v1 == v2 {
		t.Errorf("version unchanged after append: %q", v1)
	}
}

func TestEmbeddedStatsAndExec(t *testing.T) {
	db := buildDB(t)
	be := NewEmbedded(db)
	ts, err := be.TableStats(context.Background(), "sales")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 4 {
		t.Errorf("stats rows = %d", ts.Rows)
	}
	if c, ok := ts.Column("region"); !ok || c.Distinct != 2 || c.Type != TypeString {
		t.Errorf("region stats = %+v %v", c, ok)
	}

	rows, stats, err := be.Exec(context.Background(),
		"SELECT region, SUM(qty) FROM sales GROUP BY region", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 || stats.Groups != 2 || stats.RowsScanned != 4 {
		t.Errorf("rows=%d stats=%+v", len(rows.Rows), stats)
	}

	// Row-range restriction (the phased-execution primitive).
	rows, _, err = be.Exec(context.Background(),
		"SELECT region, SUM(qty) FROM sales GROUP BY region", ExecOptions{Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range rows.Rows {
		f, _ := r[1].AsFloat()
		total += f
	}
	if total != 3 { // rows 0 and 1: qty 1 + 2
		t.Errorf("partition sum = %v, want 3", total)
	}

	// Parallel scan reports vectorized stats.
	_, stats, err = be.Exec(context.Background(),
		"SELECT region, SUM(qty) FROM sales GROUP BY region", ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Vectorized {
		t.Errorf("Workers=4 over col store should vectorize, stats=%+v", stats)
	}

	// Errors surface.
	if _, _, err := be.Exec(context.Background(), "SELECT nope FROM missing", ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("want missing-table error, got %v", err)
	}
}
