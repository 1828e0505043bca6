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
// Append is safe alongside concurrent scans, and no lock is held for the
// length of a scan. A scan reads the published row count once, then the
// column headers (snapshot), and never reads at or past that count.
// Append only writes past every published count — into spare capacity,
// or into a fresh array when a vector grows, leaving the old one to the
// scans that hold it — and then publishes, once per batch: the headers
// when an array moved, the dictionaries' lengths, and the row count
// last. Writers are not synchronized with each other; callers serialize
// them.
//
// A view (DB.CreateView) is a ColStore with src set: it holds no rows,
// and its snapshot is rows [lo, hi) of src's.
type ColStore struct {
	name   string
	schema *Schema
	src    *ColStore
	lo, hi int
	// Writer side, touched only by Append: the vectors at their true
	// lengths and each string column's dictionary lookup.
	cols  []columnVector
	index []map[string]int32
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
func (t *ColStore) NumRows() int {
	if t.src != nil {
		lo, hi := clampRange(t.lo, t.hi, t.src.NumRows())
		return hi - lo
	}
	return int(t.rows.Load())
}

// Append implements Table. It checks the batch first (Schema.CheckRows),
// then pushes it one column at a time — growing each vector the way
// append does, so a load of many batches copies each cell O(1) times —
// and publishes the headers (when an array moved), the dictionaries'
// lengths and the row count once.
func (t *ColStore) Append(rows [][]Value) error {
	if t.src != nil {
		return errViewAppend(t.name)
	}
	if err := t.schema.CheckRows(rows); err != nil {
		return fmt.Errorf("sqldb: table %s: %w", t.name, err)
	}
	n, pub := t.NumRows(), *t.vecs.Load()
	moved := false
	for i := range t.cols {
		t.appendColumn(i, n, rows)
		moved = moved || t.cols[i].moved(&pub[i])
	}
	if moved {
		t.publishVecs()
	}
	for i := range t.cols {
		t.dictLen[i].Store(int32(len(t.cols[i].dict)))
	}
	t.rows.Store(int64(n + len(rows)))
	return nil
}

// appendColumn pushes column col of the checked rows onto its vector,
// which holds n rows, converting each value to the column's type (see
// storable). A NULL is stored as its type's zero value, marked in the
// NULL vector, which the column's first NULL creates; a TEXT value new
// to the column joins its dictionary.
func (t *ColStore) appendColumn(col, n int, rows [][]Value) {
	c := &t.cols[col]
	for r, row := range rows {
		v := row[col]
		isNull := v.Kind == KindNull
		if isNull {
			if c.nulls == nil {
				c.nulls = make([]bool, n+r, n+len(rows))
			}
			v = Value{} // every conversion below makes it its type's zero
		}
		if c.nulls != nil {
			c.nulls = append(c.nulls, isNull)
		}
		switch c.typ {
		case TypeInt:
			i, _ := v.AsInt()
			c.ints = append(c.ints, i)
		case TypeBool:
			c.ints = append(c.ints, Bool(v.I != 0).I)
		case TypeFloat:
			f, _ := v.AsFloat()
			c.flts = append(c.flts, f)
		case TypeString:
			code, ok := t.index[col][v.S]
			if !ok {
				code = int32(len(c.dict))
				c.dict = append(c.dict, v.S)
				t.index[col][v.S] = code
			}
			c.codes = append(c.codes, code)
		}
	}
}

// moved reports whether an array of c is not the one p names. An array
// only moves to a larger capacity, so comparing capacities tells.
func (c *columnVector) moved(p *columnVector) bool {
	return cap(c.ints) != cap(p.ints) || cap(c.flts) != cap(p.flts) || cap(c.dict) != cap(p.dict) ||
		cap(c.codes) != cap(p.codes) || cap(c.nulls) != cap(p.nulls)
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
// scanned can name, hence the cap. A view cuts its source's snapshot
// to its rows; the dictionaries stay whole.
func (t *ColStore) snapshot() *colSnap {
	if t.src != nil {
		s := t.src.snapshot()
		s.cut(clampRange(t.lo, t.hi, s.rows))
		return s
	}
	n := t.NumRows()
	s := &colSnap{cols: append([]columnVector(nil), *t.vecs.Load()...)}
	for i := range s.cols {
		c := &s.cols[i]
		c.dict = c.dict[:min(int(t.dictLen[i].Load()), cap(c.dict))]
	}
	s.cut(0, n)
	return s
}

// cut narrows s to rows [lo, hi) of its vectors, which may lie past
// their lengths but not past their capacities.
func (s *colSnap) cut(lo, hi int) {
	s.rows = hi - lo
	for i := range s.cols {
		c := &s.cols[i]
		c.ints, c.flts, c.codes, c.nulls = window(c.ints, lo, hi), window(c.flts, lo, hi), window(c.codes, lo, hi), window(c.nulls, lo, hi)
	}
}

// window returns v[lo:hi]; a nil vector stays nil.
func window[T any](v []T, lo, hi int) []T {
	if v == nil {
		return nil
	}
	return v[lo:hi]
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
