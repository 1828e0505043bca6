package sqldriver

import (
	"context"
	"testing"

	"seedb/internal/sqldb"
)

func buildDB(t *testing.T) *sqldb.DB {
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
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryRoundTrip(t *testing.T) {
	sdb := Open(buildDB(t))
	defer sdb.Close()

	rows, err := sdb.QueryContext(context.Background(),
		"SELECT region, ok, qty, price FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil || len(cols) != 4 {
		t.Fatalf("columns = %v, %v", cols, err)
	}
	n := 0
	for rows.Next() {
		var region, ok, qty, price any
		if err := rows.Scan(&region, &ok, &qty, &price); err != nil {
			t.Fatal(err)
		}
		if _, isStr := region.(string); !isStr {
			t.Errorf("region scanned as %T", region)
		}
		if _, isBool := ok.(bool); !isBool {
			t.Errorf("ok scanned as %T", ok)
		}
		if _, isInt := qty.(int64); !isInt {
			t.Errorf("qty scanned as %T", qty)
		}
		if n == 1 && price != nil {
			t.Errorf("NULL price scanned as %#v", price)
		}
		if n != 1 {
			if _, isF := price.(float64); !isF {
				t.Errorf("price scanned as %T", price)
			}
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("rows = %d, want 3", n)
	}
}

func TestAggregationThroughDriver(t *testing.T) {
	sdb := Open(buildDB(t))
	defer sdb.Close()

	var region string
	var sum float64
	err := sdb.QueryRow(
		"SELECT region, SUM(qty) FROM sales WHERE region = 'east' GROUP BY region").
		Scan(&region, &sum)
	if err != nil {
		t.Fatal(err)
	}
	if region != "east" || sum != 4 {
		t.Errorf("got %q %v", region, sum)
	}
}

func TestUnsupportedFeatures(t *testing.T) {
	sdb := Open(buildDB(t))
	defer sdb.Close()

	if _, err := sdb.Query("SELECT region FROM sales WHERE qty = ?", 1); err == nil {
		t.Error("placeholders should be rejected")
	}
	if _, err := sdb.Exec("SELECT region FROM sales"); err == nil {
		t.Error("Exec should be rejected (read-only driver)")
	}
	if _, err := sdb.Query("SELECT broken syntax here FROM"); err == nil {
		t.Error("parse errors should surface")
	}
}
