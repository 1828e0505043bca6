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
	// Distinct is the distinct non-NULL value count: exact for the
	// embedded store's INT, BOOL and TEXT columns (external backends may
	// estimate), and for a FLOAT column the table's row count, an upper
	// bound every store knows without a scan. SeeDB always classifies a
	// FLOAT column as a measure, so no store keeps its value set.
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

// StatsContext returns the statistics of the named table's current
// rows: exact distinct counts for its INT, BOOL and TEXT columns, and
// the row count for its FLOAT columns (see ColumnStats.Distinct). Tables
// are append-only between drops, so the statistics of a new version are
// those of the last one plus the appended tail: each call folds only the
// rows added since the previous one, O(appended rows), into
// distinct-value sets retained for the table's incarnation until
// DropTable or a reload replaces it. Concurrent callers at one version
// share one fold and one snapshot. The fold checks ctx every checkEvery
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
// one distinct-value set per folded column — every column but the FLOAT
// ones, whose sets stay empty — over the first snap.Rows rows, and the
// snapshot last published from them. Published snapshots are never
// mutated; each extension publishes a fresh one. Over a ColStore,
// codeSeen marks, per TEXT column, the dictionary codes whose strings
// the column's set already holds.
type statsState struct {
	mu       sync.Mutex
	table    Table
	folded   []int // the column indices whose sets the fold keeps
	sets     []distinctSet
	codeSeen [][]uint64
	snap     *TableStats
}

func newStatsState(t Table) *statsState {
	schema := t.Schema()
	n := schema.NumColumns()
	st := &statsState{table: t, sets: make([]distinctSet, n), codeSeen: make([][]uint64, n)}
	for i := 0; i < n; i++ {
		if schema.Column(i).Type != TypeFloat {
			st.folded = append(st.folded, i)
		}
	}
	st.snap = st.publish(0)
	return st
}

// extend folds the rows appended since the last snapshot into the sets
// and publishes the result. A cancelled fold leaves snap (and so the
// folded row count) where it was: the next call folds the same tail
// again, and the values the cancelled one already inserted are harmless
// — rows are immutable and set union is idempotent.
func (st *statsState) extend(ctx context.Context) (*TableStats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	lo, n := st.snap.Rows, st.table.NumRows()
	if lo == n {
		return st.snap, nil
	}
	var err error
	if cs, ok := st.table.(*ColStore); ok {
		snap := cs.snapshot()
		n = snap.rows
		err = st.foldColumns(ctx, snap, lo)
	} else {
		err = st.scanRows(ctx, lo, n)
	}
	if err != nil {
		return nil, err
	}
	st.snap = st.publish(n)
	return st.snap, nil
}

// scanRows adds every folded value of rows [lo, hi) to its column's
// set, a row at a time.
func (st *statsState) scanRows(ctx context.Context, lo, hi int) error {
	seen := 0
	return st.table.ScanRange(lo, hi, st.folded, func(row RowView) error {
		seen++
		if ctx != nil && seen%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, i := range st.folded {
			st.sets[i].add(row.Value(i))
		}
		return nil
	})
}

// foldColumns folds rows [lo, t.rows) of a column store into the sets a
// folded column at a time, reading the typed vectors a checkEvery-row
// block at a time and checking ctx before each block.
func (st *statsState) foldColumns(ctx context.Context, t *colSnap, lo int) error {
	for _, i := range st.folded {
		c, set := &t.cols[i], &st.sets[i]
		var memo bitsMemo
		memo.clear()
		if more := (len(c.dict)+63)/64 - len(st.codeSeen[i]); more > 0 {
			st.codeSeen[i] = append(st.codeSeen[i], make([]uint64, more)...)
		}
		for bLo := lo; bLo < t.rows; bLo += checkEvery {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			bHi := min(bLo+checkEvery, t.rows)
			if c.typ == TypeString {
				set.addCodes(c, bLo, bHi, st.codeSeen[i])
			} else {
				set.addBits(c, bLo, bHi, &memo)
			}
		}
	}
	return nil
}

// addCodes adds the dictionary strings of TEXT column c's rows [lo, hi)
// whose codes seen does not mark yet, and marks them: each string is
// inserted once, when its code first appears. NULL rows are skipped, so
// the "" a NULL row stores never counts.
func (s *distinctSet) addCodes(c *columnVector, lo, hi int, seen []uint64) {
	nulls := nullsIn(c, lo, hi)
	for r := lo; r < hi; r++ {
		if nulls != nil && nulls[r-lo] {
			continue
		}
		code := c.codes[r]
		if w, b := code>>6, uint64(1)<<(code&63); seen[w]&b == 0 {
			s.addStr(c.dict[code])
			seen[w] |= b
		}
	}
}

// addBits adds the values of numeric column c's non-NULL rows [lo, hi)
// that memo has not just seen.
func (s *distinctSet) addBits(c *columnVector, lo, hi int, memo *bitsMemo) {
	nums := s.numsOf(zeroValue(c.typ).Kind) // the column's one kind
	nulls := nullsIn(c, lo, hi)
	for r := lo; r < hi; r++ {
		if nulls != nil && nulls[r-lo] {
			continue
		}
		bits := groupKeyBits(c, c.typ, r)
		if m, hit := memo.slot(bits); !hit {
			nums[bits] = struct{}{}
			*m = bitsMemoEntry{bits: bits}
		}
	}
}

func (st *statsState) publish(rows int) *TableStats {
	schema := st.table.Schema()
	ts := &TableStats{Rows: rows, Columns: make([]ColumnStats, len(st.sets))}
	for i := range st.sets {
		c := schema.Column(i)
		ts.Columns[i] = ColumnStats{Name: c.Name, Type: c.Type, Distinct: st.sets[i].len()}
		if c.Type == TypeFloat {
			ts.Columns[i].Distinct = rows
		}
	}
	return ts
}

// distinctSet is sqldb's one set of distinct non-NULL values: table
// statistics, the interpreter's COUNT(DISTINCT) (aggState) and the shard
// merge's union of per-child value sets (shardSlot.fold) all count with
// it. Its identity is AppendKey's. A number is its kind plus its 64 bits
// — INT and BOOL uint64(I), FLOAT its bit pattern — so Int(1), Float(1)
// and Bool(true) are three values and -0/+0 and NaN payloads stay
// distinct. A string is its bytes, kept by its header (it aliases the
// value's own storage), so no value costs an allocation. The zero value
// is empty; maps are made on first use.
type distinctSet struct {
	nums [KindBool + 1]map[uint64]struct{} // by Kind: INT, FLOAT, BOOL
	strs map[string]struct{}
}

func (s *distinctSet) add(v Value) {
	switch v.Kind {
	case KindNull:
	case KindString:
		s.addStr(v.S)
	case KindFloat:
		s.numsOf(KindFloat)[math.Float64bits(v.F)] = struct{}{}
	default:
		s.numsOf(v.Kind)[uint64(v.I)] = struct{}{}
	}
}

func (s *distinctSet) addStr(v string) {
	if s.strs == nil {
		s.strs = make(map[string]struct{})
	}
	s.strs[v] = struct{}{}
}

// numsOf returns the set's values of numeric kind k, by their bits.
func (s *distinctSet) numsOf(k ValueKind) map[uint64]struct{} {
	if s.nums[k] == nil {
		s.nums[k] = make(map[uint64]struct{})
	}
	return s.nums[k]
}

func (s *distinctSet) len() int {
	n := len(s.strs)
	for _, m := range s.nums {
		n += len(m)
	}
	return n
}
