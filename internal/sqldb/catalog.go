package sqldb

import (
	"context"
	"fmt"
	"strings"
)

// ColumnStats summarizes one column for the optimizer and for SeeDB's
// view generator (which classifies columns into dimension and measure
// attributes and needs distinct counts for bin-packed GROUP BY planning).
type ColumnStats struct {
	Name     string
	Type     ColumnType
	Distinct int     // exact distinct non-NULL value count
	Nulls    int     // NULL count
	Min, Max float64 // numeric columns only; 0 otherwise
	numeric  bool
}

// HasMinMax reports whether Min/Max are meaningful (numeric column with at
// least one non-NULL value).
func (s ColumnStats) HasMinMax() bool { return s.numeric }

// TableStats holds per-column statistics for a table.
type TableStats struct {
	Table   string
	Rows    int
	Columns []ColumnStats
}

// Column returns stats for the named column.
func (ts *TableStats) Column(name string) (ColumnStats, bool) {
	for _, c := range ts.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return ColumnStats{}, false
}

// Stats computes (or returns cached) statistics for the named table by a
// single full scan.
func (db *DB) Stats(table string) (*TableStats, error) {
	return db.StatsContext(nil, table)
}

// StatsContext is Stats with cancellation: the statistics scan checks
// ctx every checkEvery rows, so introspecting a huge table stays
// abortable (a nil ctx disables the checks).
func (db *DB) StatsContext(ctx context.Context, table string) (*TableStats, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	key := strings.ToLower(table)
	db.mu.RLock()
	t, ok := db.tables[key]
	cached := db.stats[key]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sqldb: table %q does not exist", table)
	}
	if cached != nil && cached.Rows == t.NumRows() {
		return cached, nil
	}
	ts, err := computeStats(ctx, t)
	if err != nil {
		return nil, err
	}
	// One slot per table: a moved row count replaces it and DropTable
	// deletes it, so ingest batches and reloads retain nothing. A scan
	// that outlived its table's incarnation must not answer for the next.
	db.mu.Lock()
	if db.tables[key] == t {
		db.stats[key] = ts
	}
	db.mu.Unlock()
	return ts, nil
}

// ComputeStats scans t once and computes exact per-column statistics.
func ComputeStats(t Table) (*TableStats, error) {
	return computeStats(nil, t)
}

// computeStats is ComputeStats with optional cancellation.
func computeStats(ctx context.Context, t Table) (*TableStats, error) {
	schema := t.Schema()
	n := schema.NumColumns()
	ts := &TableStats{Table: t.Name(), Rows: t.NumRows()}
	distinct := make([]map[string]struct{}, n)
	cols := make([]int, n)
	stats := make([]ColumnStats, n)
	for i := 0; i < n; i++ {
		distinct[i] = make(map[string]struct{})
		cols[i] = i
		stats[i] = ColumnStats{Name: schema.Column(i).Name, Type: schema.Column(i).Type}
	}
	var keyBuf []byte
	seen := 0
	err := t.ScanRange(0, t.NumRows(), cols, func(row RowView) error {
		seen++
		if ctx != nil && seen%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			v := row.Value(i)
			if v.IsNull() {
				stats[i].Nulls++
				continue
			}
			keyBuf = v.appendKey(keyBuf[:0])
			distinct[i][string(keyBuf)] = struct{}{}
			if f, ok := v.AsFloat(); ok && v.Kind != KindString {
				if !stats[i].numeric {
					stats[i].numeric = true
					stats[i].Min, stats[i].Max = f, f
				} else {
					if f < stats[i].Min {
						stats[i].Min = f
					}
					if f > stats[i].Max {
						stats[i].Max = f
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		stats[i].Distinct = len(distinct[i])
	}
	ts.Columns = stats
	return ts, nil
}
