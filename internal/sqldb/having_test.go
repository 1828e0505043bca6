package sqldb

import (
	"reflect"
	"testing"
)

func TestHavingFiltersGroups(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db,
			"SELECT sex, COUNT(*) FROM census GROUP BY sex HAVING COUNT(*) > 2 ORDER BY sex")
		// Both sexes have 3 rows; raise the bar and only groups beyond it
		// remain.
		if len(rows) != 2 {
			t.Fatalf("HAVING >2: got %d groups, want 2", len(rows))
		}
		rows = queryRows(t, db,
			"SELECT region, COUNT(*) FROM census GROUP BY region HAVING COUNT(*) >= 4")
		// region 1 has 4 rows, region 2 has 2.
		if len(rows) != 1 || rows[0][0].I != 1 {
			t.Fatalf("HAVING >=4: got %v", rows)
		}
	})
}

func TestHavingOnAggregateNotInSelect(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db,
			"SELECT sex FROM census GROUP BY sex HAVING AVG(hours) > 36 ORDER BY sex")
		// F avg hours = 35, M avg hours ≈ 38.3.
		if len(rows) != 1 || rows[0][0].S != "M" {
			t.Fatalf("got %v, want [M]", rows)
		}
	})
}

func TestHavingWithGroupKeyReference(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db,
			"SELECT sex, COUNT(*) FROM census GROUP BY sex HAVING sex = 'F'")
		if len(rows) != 1 || rows[0][0].S != "F" {
			t.Fatalf("got %v", rows)
		}
	})
}

func TestHavingWithoutGroupByIsGlobal(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT COUNT(*) FROM census HAVING COUNT(*) > 100")
		if len(rows) != 0 {
			t.Fatalf("global HAVING false: got %v", rows)
		}
		rows = queryRows(t, db, "SELECT COUNT(*) FROM census HAVING COUNT(*) > 2")
		if len(rows) != 1 || rows[0][0].I != 6 {
			t.Fatalf("global HAVING true: got %v", rows)
		}
	})
}

func TestHavingErrors(t *testing.T) {
	db := buildDB(t, LayoutCol)
	// Non-grouped column reference inside HAVING.
	if _, err := db.QueryOpts("SELECT sex, COUNT(*) FROM census GROUP BY sex HAVING hours > 0", ExecOptions{}); err == nil {
		t.Error("HAVING referencing a non-grouped column should fail")
	}
}

func TestSelectDistinct(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		rows := queryRows(t, db, "SELECT DISTINCT sex FROM census ORDER BY sex")
		if len(rows) != 2 || rows[0][0].S != "F" || rows[1][0].S != "M" {
			t.Fatalf("distinct sex = %v", rows)
		}
		rows = queryRows(t, db, "SELECT DISTINCT sex, region FROM census")
		if len(rows) != 4 {
			t.Fatalf("distinct pairs = %d, want 4", len(rows))
		}
	})
}

func TestSelectDistinctWithNulls(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		// Two NULL incomes would collapse to one under DISTINCT.
		rows := queryRows(t, db, "SELECT DISTINCT income IS NULL FROM census")
		if len(rows) != 2 {
			t.Fatalf("distinct null-flags = %d, want 2", len(rows))
		}
	})
}

func TestOffsetPagination(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		all := queryRows(t, db, "SELECT hours FROM census ORDER BY hours")
		page := queryRows(t, db, "SELECT hours FROM census ORDER BY hours LIMIT 2 OFFSET 2")
		if len(page) != 2 {
			t.Fatalf("page size = %d", len(page))
		}
		if !reflect.DeepEqual(page, all[2:4]) {
			t.Errorf("page = %v, want %v", page, all[2:4])
		}
		// Offset beyond the result set yields nothing.
		empty := queryRows(t, db, "SELECT hours FROM census ORDER BY hours LIMIT 5 OFFSET 50")
		if len(empty) != 0 {
			t.Errorf("overflow offset = %v", empty)
		}
		// Offset without limit.
		tail := queryRows(t, db, "SELECT hours FROM census ORDER BY hours OFFSET 4")
		if len(tail) != 2 {
			t.Errorf("offset-only tail = %d rows, want 2", len(tail))
		}
	})
}

func TestHavingOffsetDistinctRoundTrip(t *testing.T) {
	sql := "SELECT DISTINCT sex, COUNT(*) AS n FROM census GROUP BY sex HAVING (n > 1) ORDER BY n DESC LIMIT 5 OFFSET 1"
	stmt := mustParse(t, sql)
	if !stmt.Distinct || stmt.Having == nil || stmt.Offset != 1 || stmt.Limit != 5 {
		t.Fatalf("parse lost clauses: %+v", stmt)
	}
	s1 := stmt.String()
	s2 := mustParse(t, s1).String()
	if s1 != s2 {
		t.Errorf("round-trip unstable:\n%s\n%s", s1, s2)
	}
}

func TestOffsetParseErrors(t *testing.T) {
	for _, sql := range []string{
		"SELECT a FROM t OFFSET x",
		"SELECT a FROM t LIMIT 2 OFFSET -1",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestHavingAliasReference(t *testing.T) {
	bothLayouts(t, func(t *testing.T, db *DB) {
		// HAVING can repeat the aggregate expression (alias resolution is
		// via textual match of the same expression).
		rows := queryRows(t, db,
			"SELECT region, SUM(hours) AS total FROM census GROUP BY region HAVING SUM(hours) > 100")
		// region 1: 40+45+20+30 = 135; region 2: 35+50 = 85.
		if len(rows) != 1 || rows[0][0].I != 1 {
			t.Fatalf("got %v", rows)
		}
	})
}
