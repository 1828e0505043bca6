package sqldb

import (
	"fmt"
	"sync/atomic"
)

// ColStore is a column-oriented table: each attribute is stored in its own
// typed vector, with strings dictionary-encoded. This models the "COL"
// system of the SeeDB paper's evaluation. A scan touches only the column
// vectors a query references, so narrow aggregation queries (the common
// SeeDB case: one dimension + one measure out of dozens of attributes) run
// several times faster than on the row store — the paper observes ~5X.
//
// AppendRow is safe alongside concurrent scans, and no lock is held for
// the length of a scan. A scan reads the published row count once, then
// the column headers (snapshot), and never reads at or past that count.
// AppendRow only writes past every published count — into spare capacity,
// or into a fresh array when a vector grows, leaving the old one to the
// scans that hold it — and then publishes: the headers when an array
// moved, a dictionary's length when it grew, and the row count last.
// Writers are not synchronized with each other; callers serialize them.
type ColStore struct {
	name   string
	schema *Schema
	// Writer side, touched only by AppendRow and Reserve: the vectors at
	// their true lengths, each string column's dictionary lookup, and the
	// coerced values of the row being appended (so a mid-row coercion
	// failure leaves every vector untouched).
	cols    []columnVector
	index   []map[string]int32
	scratch []Value
	// Reader side: the writer's headers as of the last move, each string
	// column's published dictionary length, and the published row count.
	vecs    atomic.Pointer[[]columnVector]
	dictLen []atomic.Int32
	rows    atomic.Int64
}

// columnVector is one typed column. Exactly one of the payload slices is
// populated, according to the column's declared type. nulls, when
// non-nil, marks NULL positions.
type columnVector struct {
	typ   ColumnType
	ints  []int64   // TypeInt, TypeBool (0/1)
	flts  []float64 // TypeFloat
	dict  []string  // TypeString: dictionary
	codes []int32   // TypeString: per-row dictionary codes
	nulls []bool    // nil when the column has no NULLs so far
}

// colSnap is what one scan reads of a ColStore: the row count it saw and
// every column vector cut to that count, dictionaries included.
type colSnap struct {
	rows int
	cols []columnVector
}

// NewColStore creates an empty column-oriented table.
func NewColStore(name string, schema *Schema) *ColStore {
	n := schema.NumColumns()
	t := &ColStore{name: name, schema: schema, cols: make([]columnVector, n),
		index: make([]map[string]int32, n), dictLen: make([]atomic.Int32, n)}
	for i := range t.cols {
		t.cols[i].typ = schema.Column(i).Type
		if t.cols[i].typ == TypeString {
			t.index[i] = make(map[string]int32)
		}
	}
	t.publishVecs()
	return t
}

// Name returns the table name.
func (t *ColStore) Name() string { return t.name }

// Schema returns the table schema.
func (t *ColStore) Schema() *Schema { return t.schema }

// Layout returns LayoutCol.
func (t *ColStore) Layout() Layout { return LayoutCol }

// NumRows returns the number of published rows.
func (t *ColStore) NumRows() int { return int(t.rows.Load()) }

// AppendRow appends one tuple, decomposing it into the column vectors.
// The row is coerced up front so a failure leaves the table unchanged
// (the vectors must never go out of sync, and dataset-version consumers
// assume a failed append has no effect).
func (t *ColStore) AppendRow(vals []Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("sqldb: table %s expects %d values, got %d", t.name, len(t.cols), len(vals))
	}
	if cap(t.scratch) < len(vals) {
		t.scratch = make([]Value, len(vals))
	}
	coerced := t.scratch[:len(vals)]
	for i, raw := range vals {
		v, err := coerce(raw, t.cols[i].typ)
		if err != nil {
			return fmt.Errorf("%w (column %s)", err, t.schema.Column(i).Name)
		}
		coerced[i] = v
	}
	n := t.NumRows()
	moved := false
	for i, v := range coerced {
		c := &t.cols[i]
		isNull := v.Kind == KindNull
		if isNull {
			if c.nulls == nil {
				c.nulls, moved = make([]bool, n, n+1), true
			}
			v = zeroValue(c.typ)
		}
		if c.nulls != nil {
			c.nulls = push(c.nulls, isNull, &moved)
		}
		switch c.typ {
		case TypeInt, TypeBool:
			c.ints = push(c.ints, v.I, &moved)
		case TypeFloat:
			c.flts = push(c.flts, v.F, &moved)
		case TypeString:
			code, ok := t.index[i][v.S]
			if !ok {
				code = int32(len(c.dict))
				c.dict = push(c.dict, v.S, &moved)
				t.index[i][v.S] = code
				t.dictLen[i].Store(code + 1)
			}
			c.codes = push(c.codes, code, &moved)
		}
	}
	if moved {
		t.publishVecs()
	}
	t.rows.Store(int64(n + 1))
	return nil
}

// push appends v to s, setting *moved when the append needs a new array.
func push[T any](s []T, v T, moved *bool) []T {
	if len(s) == cap(s) {
		*moved = true
	}
	return append(s, v)
}

// publishVecs publishes a copy of the writer's vector headers.
func (t *ColStore) publishVecs() {
	vecs := append([]columnVector(nil), t.cols...)
	t.vecs.Store(&vecs)
}

// snapshot reads the table for one scan: the row count first, then the
// headers, published before it, so their arrays hold that many rows.
// A dictionary length may be stored before its array's headers are
// published; the entries that array holds are then the ones the rows
// scanned can name, hence the cap.
func (t *ColStore) snapshot() *colSnap {
	n := t.NumRows()
	s := &colSnap{rows: n, cols: append([]columnVector(nil), *t.vecs.Load()...)}
	for i := range s.cols {
		c := &s.cols[i]
		c.ints, c.flts, c.codes, c.nulls = upTo(c.ints, n), upTo(c.flts, n), upTo(c.codes, n), upTo(c.nulls, n)
		c.dict = c.dict[:min(int(t.dictLen[i].Load()), cap(c.dict))]
	}
	return s
}

// upTo cuts s to its first n elements, which may lie past len(s) but
// not past cap(s). A nil vector stays nil.
func upTo[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}

// Reserve pre-allocates capacity for n additional rows in every column.
func (t *ColStore) Reserve(n int) {
	for i := range t.cols {
		c := &t.cols[i]
		switch c.typ {
		case TypeInt, TypeBool:
			c.ints = reserve(c.ints, n)
		case TypeFloat:
			c.flts = reserve(c.flts, n)
		case TypeString:
			c.codes = reserve(c.codes, n)
		}
	}
	t.publishVecs()
}

// reserve returns s with room for n more elements, moved to a new array
// when its own lacks it.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// colRowView adapts the columnar layout to the RowView interface for one
// row index. Only the columns listed in the scan's projection are legal to
// access; others return NULL (they were never materialized).
type colRowView struct {
	t      *colSnap
	row    int
	wanted []bool // nil means all columns allowed
}

// Value returns the value of column col at the view's current row.
func (r colRowView) Value(col int) Value {
	if r.wanted != nil && (col >= len(r.wanted) || !r.wanted[col]) {
		return Null()
	}
	c := &r.t.cols[col]
	if c.nulls != nil && c.nulls[r.row] {
		return Null()
	}
	switch c.typ {
	case TypeInt:
		return Int(c.ints[r.row])
	case TypeBool:
		return Bool(c.ints[r.row] != 0)
	case TypeFloat:
		return Float(c.flts[r.row])
	case TypeString:
		return Str(c.dict[c.codes[r.row]])
	default:
		return Null()
	}
}

// wantedMask builds the projection mask for a scan: nil (all columns
// allowed) when cols is nil, else true exactly at the listed indices.
// Both ScanRange and the vectorized executor derive their RowView access
// rules from this one place.
func (t *colSnap) wantedMask(cols []int) []bool {
	if cols == nil {
		return nil
	}
	wanted := make([]bool, len(t.cols))
	for _, c := range cols {
		if c >= 0 && c < len(wanted) {
			wanted[c] = true
		}
	}
	return wanted
}

// ScanRange implements Table. Only the vectors for the requested columns
// are touched; passing nil cols grants access to every column.
func (t *ColStore) ScanRange(lo, hi int, cols []int, fn func(row RowView) error) error {
	s := t.snapshot()
	lo, hi = clampRange(lo, hi, s.rows)
	// One view per scan, passed by pointer: a struct converted to RowView
	// per row would allocate per row.
	view := &colRowView{t: s, wanted: s.wantedMask(cols)}
	for i := lo; i < hi; i++ {
		view.row = i
		if err := fn(view); err != nil {
			return err
		}
	}
	return nil
}

var _ Table = (*ColStore)(nil)
