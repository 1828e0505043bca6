package sqldb

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table. The JSON tags are the
// netbe wire form; Type travels as the ColumnType's numeric code, which
// is therefore part of that protocol.
type Column struct {
	Name string     `json:"name"`
	Type ColumnType `json:"type"`
}

// Schema is an ordered set of columns with case-insensitive name lookup.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// non-empty and unique (case-insensitively).
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("sqldb: column %d has empty name", i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column name %q", c.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// static schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Lookup returns the index of the named column (case-insensitive) and
// whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Layout identifies a table's physical storage organization.
type Layout uint8

// Physical layouts; these correspond to the "ROW" and "COL" systems in the
// SeeDB paper's evaluation.
const (
	LayoutRow Layout = iota
	LayoutCol
)

// MarshalText gives the layout its wire form, "row" or "col".
func (l Layout) MarshalText() ([]byte, error) {
	switch l {
	case LayoutRow:
		return []byte("row"), nil
	case LayoutCol:
		return []byte("col"), nil
	default:
		return nil, fmt.Errorf("sqldb: unknown layout %d", uint8(l))
	}
}

// ParseLayout resolves a layout name: "row", or "col" (alias "column"),
// in any case. It is the one layout parser — the wire form, server
// requests and both command-line -layout flags all go through it.
func ParseLayout(s string) (Layout, error) {
	switch strings.ToLower(s) {
	case "row":
		return LayoutRow, nil
	case "col", "column":
		return LayoutCol, nil
	default:
		return 0, fmt.Errorf("unknown layout %q (want row or col)", s)
	}
}

// UnmarshalText inverts MarshalText.
func (l *Layout) UnmarshalText(text []byte) error {
	v, err := ParseLayout(string(text))
	if err == nil {
		*l = v
	}
	return err
}

// String returns the paper's name for the layout.
func (l Layout) String() string {
	switch l {
	case LayoutRow:
		return "ROW"
	case LayoutCol:
		return "COL"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// RowView provides positional access to the current row during a scan.
// Implementations are only valid for the duration of the scan callback.
type RowView interface {
	// Value returns the value of the column at schema position col.
	Value(col int) Value
}

// Table is a stored relation. Implementations must let AppendRow run
// alongside concurrent readers: a reader sees a prefix of the rows, fixed
// when it reads the row count, and never a half-appended row. Writers
// are not synchronized with each other; callers serialize them.
type Table interface {
	// Name returns the table name.
	Name() string
	// Schema returns the table schema.
	Schema() *Schema
	// NumRows returns the published row count. Tables are append-only
	// between drops, so together with the catalog epoch it versions the
	// table's contents (see DB.TableVersion).
	NumRows() int
	// Layout reports the physical layout (ROW or COL).
	Layout() Layout
	// AppendRow appends one row; vals must have one value per column,
	// coercible to the column types.
	AppendRow(vals []Value) error
	// ScanRange invokes fn for every row index in [lo, hi), clamped to
	// the table size. cols lists the column indices the consumer will
	// read; a column store uses it to touch only those vectors, while a
	// row store ignores it (it pays full tuple width either way). The
	// RowView passed to fn is invalidated when fn returns. Scanning stops
	// early if fn returns a non-nil error, which is then returned.
	ScanRange(lo, hi int, cols []int, fn func(row RowView) error) error
}

// clampRange clamps [lo, hi) to [0, n).
func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n || hi < 0 {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
