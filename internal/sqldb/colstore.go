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
type ColStore struct {
	name   string
	schema *Schema
	rows   int
	cols   []columnVector
	gen    atomic.Uint64
	// scratch holds coerced values during AppendRow so a mid-row
	// coercion failure leaves every column vector untouched.
	scratch []Value
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
	index map[string]int32
	nulls []bool // nil when the column has no NULLs so far
}

// NewColStore creates an empty column-oriented table.
func NewColStore(name string, schema *Schema) *ColStore {
	t := &ColStore{name: name, schema: schema}
	t.cols = make([]columnVector, schema.NumColumns())
	for i := range t.cols {
		t.cols[i].typ = schema.Column(i).Type
		if t.cols[i].typ == TypeString {
			t.cols[i].index = make(map[string]int32)
		}
	}
	return t
}

// Name returns the table name.
func (t *ColStore) Name() string { return t.name }

// Schema returns the table schema.
func (t *ColStore) Schema() *Schema { return t.schema }

// Layout returns LayoutCol.
func (t *ColStore) Layout() Layout { return LayoutCol }

// NumRows returns the number of stored rows.
func (t *ColStore) NumRows() int { return t.rows }

// Generation returns the table's content generation (bumped per append).
func (t *ColStore) Generation() uint64 { return t.gen.Load() }

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
	for i, v := range coerced {
		c := &t.cols[i]
		isNull := v.Kind == KindNull
		if isNull {
			if c.nulls == nil {
				c.nulls = make([]bool, t.rows, t.rows+1)
			}
			v = zeroValue(c.typ)
		}
		if c.nulls != nil {
			c.nulls = append(c.nulls, isNull)
		}
		switch c.typ {
		case TypeInt, TypeBool:
			c.ints = append(c.ints, v.I)
		case TypeFloat:
			c.flts = append(c.flts, v.F)
		case TypeString:
			code, ok := c.index[v.S]
			if !ok {
				code = int32(len(c.dict))
				c.dict = append(c.dict, v.S)
				c.index[v.S] = code
			}
			c.codes = append(c.codes, code)
		}
	}
	t.rows++
	t.gen.Add(1)
	return nil
}

// Reserve pre-allocates capacity for n additional rows in every column.
func (t *ColStore) Reserve(n int) {
	for i := range t.cols {
		c := &t.cols[i]
		switch c.typ {
		case TypeInt, TypeBool:
			if cap(c.ints)-len(c.ints) < n {
				g := make([]int64, len(c.ints), len(c.ints)+n)
				copy(g, c.ints)
				c.ints = g
			}
		case TypeFloat:
			if cap(c.flts)-len(c.flts) < n {
				g := make([]float64, len(c.flts), len(c.flts)+n)
				copy(g, c.flts)
				c.flts = g
			}
		case TypeString:
			if cap(c.codes)-len(c.codes) < n {
				g := make([]int32, len(c.codes), len(c.codes)+n)
				copy(g, c.codes)
				c.codes = g
			}
		}
	}
}

// colRowView adapts the columnar layout to the RowView interface for one
// row index. Only the columns listed in the scan's projection are legal to
// access; others return NULL (they were never materialized).
type colRowView struct {
	t      *ColStore
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
func (t *ColStore) wantedMask(cols []int) []bool {
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
	lo, hi = clampRange(lo, hi, t.rows)
	// One view per scan, passed by pointer: a struct converted to RowView
	// per row would allocate per row.
	view := &colRowView{t: t, wanted: t.wantedMask(cols)}
	for i := lo; i < hi; i++ {
		view.row = i
		if err := fn(view); err != nil {
			return err
		}
	}
	return nil
}

var _ Table = (*ColStore)(nil)
