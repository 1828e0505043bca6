package sqldb

import (
	"context"
	"fmt"
	"strings"
)

// ColumnStats summarizes one column for SeeDB's view generator (which
// classifies columns into dimension and measure attributes) and the
// bin-packing group-by optimizer (which needs distinct counts). Like
// Column and TableStats it is declared once, here: backend.ColumnStats
// is an alias and the JSON tags are the netbe wire form.
type ColumnStats struct {
	Name string     `json:"name"`
	Type ColumnType `json:"type"`
	// Distinct is the distinct non-NULL value count. Exact for the
	// embedded store; external backends may estimate.
	Distinct int `json:"distinct"`
}

// TableStats holds per-column statistics for a table (GET
// /api/backend/stats's payload).
type TableStats struct {
	Rows    int           `json:"rows"`
	Columns []ColumnStats `json:"columns"`
}

// Column returns stats for the named column (case-insensitive).
func (ts *TableStats) Column(name string) (ColumnStats, bool) {
	for _, c := range ts.Columns {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return ColumnStats{}, false
}

// StatsContext computes (or returns cached) statistics for the named
// table by a single full scan. The scan checks ctx every checkEvery
// rows, so introspecting a huge table stays abortable (a nil ctx
// disables the checks).
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

// computeStats scans t once and counts each column's exact distinct
// non-NULL values.
func computeStats(ctx context.Context, t Table) (*TableStats, error) {
	schema := t.Schema()
	n := schema.NumColumns()
	ts := &TableStats{Rows: t.NumRows(), Columns: make([]ColumnStats, n)}
	distinct := make([]map[string]struct{}, n)
	cols := make([]int, n)
	for i := 0; i < n; i++ {
		distinct[i] = make(map[string]struct{})
		cols[i] = i
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
				continue
			}
			keyBuf = v.appendKey(keyBuf[:0])
			distinct[i][string(keyBuf)] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range ts.Columns {
		c := schema.Column(i)
		ts.Columns[i] = ColumnStats{Name: c.Name, Type: c.Type, Distinct: len(distinct[i])}
	}
	return ts, nil
}
