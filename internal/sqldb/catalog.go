package sqldb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
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

// StatsContext returns exact statistics for the named table's current
// rows. Tables are append-only between drops, so the statistics of a new
// version are those of the last one plus the appended tail: each call
// scans only the rows added since the previous one, O(appended rows),
// into distinct-value sets retained for the table's incarnation until
// DropTable or a reload replaces it. Concurrent callers at one version
// share one scan and one snapshot. The scan checks ctx every checkEvery
// rows (a nil ctx disables the checks).
func (db *DB) StatsContext(ctx context.Context, table string) (*TableStats, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	key := strings.ToLower(table)
	db.mu.Lock()
	t, ok := db.tables[key]
	st := db.stats[key]
	if ok && (st == nil || st.table != t) {
		st = newStatsState(t)
		db.stats[key] = st
	}
	db.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sqldb: table %q does not exist", table)
	}
	return st.extend(ctx)
}

// statsState is the incremental statistics of one table incarnation:
// one distinct-value set per column over the first snap.Rows rows, and
// the snapshot last published from them. Published snapshots are never
// mutated; each extension publishes a fresh one.
type statsState struct {
	mu    sync.Mutex
	table Table
	sets  []distinctSet
	snap  *TableStats
}

func newStatsState(t Table) *statsState {
	st := &statsState{table: t, sets: make([]distinctSet, t.Schema().NumColumns())}
	for i := range st.sets {
		st.sets[i] = distinctSet{nums: make(map[uint64]struct{}), strs: make(map[string]struct{})}
	}
	st.snap = st.publish(0)
	return st
}

// extend folds the rows appended since the last snapshot into the sets
// and publishes the result. A cancelled scan leaves snap (and so the
// folded row count) where it was: the next call rescans the same tail,
// and the values the cancelled scan already inserted are harmless —
// rows are immutable and set union is idempotent.
func (st *statsState) extend(ctx context.Context) (*TableStats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	lo, n := st.snap.Rows, st.table.NumRows()
	if lo == n {
		return st.snap, nil
	}
	seen := 0
	err := st.table.ScanRange(lo, n, nil, func(row RowView) error {
		seen++
		if ctx != nil && seen%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for i := range st.sets {
			st.sets[i].add(row.Value(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.snap = st.publish(n)
	return st.snap, nil
}

func (st *statsState) publish(rows int) *TableStats {
	schema := st.table.Schema()
	ts := &TableStats{Rows: rows, Columns: make([]ColumnStats, len(st.sets))}
	for i, s := range st.sets {
		c := schema.Column(i)
		ts.Columns[i] = ColumnStats{Name: c.Name, Type: c.Type, Distinct: len(s.nums) + len(s.strs)}
	}
	return ts
}

// distinctSet holds one column's distinct non-NULL values with
// appendKey's identity and no per-value allocation: TEXT by the stored
// string (which aliases the store's dictionary or intern table), INT
// and BOOL by uint64(I), FLOAT by its bit pattern (so -0/+0 and NaN
// payloads stay distinct). Stored values carry their column's type
// (AppendRow coerces), so one numeric set per column never mixes kinds.
type distinctSet struct {
	nums map[uint64]struct{}
	strs map[string]struct{}
}

func (s *distinctSet) add(v Value) {
	switch v.Kind {
	case KindNull:
	case KindString:
		s.strs[v.S] = struct{}{}
	case KindFloat:
		s.nums[math.Float64bits(v.F)] = struct{}{}
	default:
		s.nums[uint64(v.I)] = struct{}{}
	}
}
