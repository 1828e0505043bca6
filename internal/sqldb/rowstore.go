package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// RowStore is a row-oriented table: tuples are stored contiguously as
// serialized bytes, the way a disk-backed row store lays records out on
// heap pages. This models the "ROW" system of the SeeDB paper's
// evaluation. A scan deserializes every field of every tuple before the
// executor sees it — the cost is proportional to the full tuple width
// irrespective of how many columns a query touches, which is exactly the
// property that makes shared scans so valuable on row stores (the
// paper's 40X sharing gain on ROW vs 6X on COL).
//
// Tuple encoding, per field:
//
//	INT/FLOAT  kind byte + 8 bytes little-endian
//	BOOL       kind byte + 1 byte
//	TEXT       kind byte + 4-byte length + inline string bytes
//	NULL       kind byte
//
// String fields decode through a per-column intern table so scans do not
// allocate, but they still pay the per-field hash — the analogue of a
// row store's per-attribute copy out of the page.
type RowStore struct {
	name    string
	schema  *Schema
	width   int
	data    []byte // serialized tuples, back to back
	offsets []int  // offsets[i] = start of row i in data; sentinel at end
	dicts   []rowDict
	gen     atomic.Uint64
}

// rowDict is a per-column string intern table: decode looks inline bytes
// up here instead of allocating a fresh string per field per row.
type rowDict struct {
	index map[string]string
}

// tuple field tags (distinct from ValueKind so encodings stay stable).
const (
	tagNull  byte = 0
	tagInt   byte = 1
	tagFloat byte = 2
	tagStr   byte = 3
	tagBool  byte = 4
)

// NewRowStore creates an empty row-oriented table.
func NewRowStore(name string, schema *Schema) *RowStore {
	t := &RowStore{
		name:    name,
		schema:  schema,
		width:   schema.NumColumns(),
		offsets: []int{0},
	}
	t.dicts = make([]rowDict, schema.NumColumns())
	for i := 0; i < schema.NumColumns(); i++ {
		if schema.Column(i).Type == TypeString {
			t.dicts[i].index = make(map[string]string)
		}
	}
	return t
}

// Name returns the table name.
func (t *RowStore) Name() string { return t.name }

// Schema returns the table schema.
func (t *RowStore) Schema() *Schema { return t.schema }

// Layout returns LayoutRow.
func (t *RowStore) Layout() Layout { return LayoutRow }

// NumRows returns the number of stored rows.
func (t *RowStore) NumRows() int { return len(t.offsets) - 1 }

// Generation returns the table's content generation (bumped per append).
func (t *RowStore) Generation() uint64 { return t.gen.Load() }

// AppendRow serializes one tuple onto the heap.
func (t *RowStore) AppendRow(vals []Value) error {
	if len(vals) != t.width {
		return fmt.Errorf("sqldb: table %s expects %d values, got %d", t.name, t.width, len(vals))
	}
	start := len(t.data)
	for i, raw := range vals {
		v, err := coerce(raw, t.schema.Column(i).Type)
		if err != nil {
			t.data = t.data[:start] // roll back the partial tuple
			return fmt.Errorf("%w (column %s)", err, t.schema.Column(i).Name)
		}
		switch v.Kind {
		case KindNull:
			t.data = append(t.data, tagNull)
		case KindInt:
			t.data = append(t.data, tagInt)
			t.data = binary.LittleEndian.AppendUint64(t.data, uint64(v.I))
		case KindFloat:
			t.data = append(t.data, tagFloat)
			t.data = binary.LittleEndian.AppendUint64(t.data, math.Float64bits(v.F))
		case KindBool:
			b := byte(0)
			if v.I != 0 {
				b = 1
			}
			t.data = append(t.data, tagBool, b)
		case KindString:
			d := &t.dicts[i]
			if _, ok := d.index[v.S]; !ok {
				d.index[v.S] = v.S
			}
			t.data = append(t.data, tagStr)
			t.data = binary.LittleEndian.AppendUint32(t.data, uint32(len(v.S)))
			t.data = append(t.data, v.S...)
		}
	}
	t.offsets = append(t.offsets, len(t.data))
	t.gen.Add(1)
	return nil
}

// Reserve pre-allocates capacity for approximately n additional rows.
func (t *RowStore) Reserve(n int) {
	// Estimate 9 bytes per field (the INT/FLOAT encoding).
	need := len(t.data) + n*t.width*9
	if cap(t.data) < need {
		grown := make([]byte, len(t.data), need)
		copy(grown, t.data)
		t.data = grown
	}
	if cap(t.offsets) < len(t.offsets)+n {
		grown := make([]int, len(t.offsets), len(t.offsets)+n+1)
		copy(grown, t.offsets)
		t.offsets = grown
	}
}

// rowSlice is the RowView over one deserialized tuple.
type rowSlice []Value

// Value returns the col-th field of the tuple.
func (r rowSlice) Value(col int) Value { return r[col] }

// ScanRange implements Table. The cols hint is ignored: a row store
// deserializes the whole tuple on every scan. The scratch tuple is reused
// across rows, so the RowView is only valid inside the callback.
func (t *RowStore) ScanRange(lo, hi int, cols []int, fn func(row RowView) error) error {
	lo, hi = clampRange(lo, hi, t.NumRows())
	scratch := make([]Value, t.width)
	view := RowView(rowSlice(scratch)) // once: converting per row allocates per row
	for i := lo; i < hi; i++ {
		if err := t.decode(t.data[t.offsets[i]:t.offsets[i+1]], scratch); err != nil {
			return err
		}
		if err := fn(view); err != nil {
			return err
		}
	}
	return nil
}

// decode deserializes one tuple into out.
func (t *RowStore) decode(buf []byte, out []Value) error {
	pos := 0
	for i := 0; i < t.width; i++ {
		if pos >= len(buf) {
			return fmt.Errorf("sqldb: table %s: truncated tuple", t.name)
		}
		tag := buf[pos]
		pos++
		switch tag {
		case tagNull:
			out[i] = Value{Kind: KindNull}
		case tagInt:
			out[i] = Value{Kind: KindInt, I: int64(binary.LittleEndian.Uint64(buf[pos:]))}
			pos += 8
		case tagFloat:
			out[i] = Value{Kind: KindFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))}
			pos += 8
		case tagBool:
			out[i] = Value{Kind: KindBool, I: int64(buf[pos])}
			pos++
		case tagStr:
			n := int(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
			if pos+n > len(buf) {
				return fmt.Errorf("sqldb: table %s: truncated string field", t.name)
			}
			// Interned lookup: string(b) map keys do not allocate.
			s, ok := t.dicts[i].index[string(buf[pos:pos+n])]
			if !ok {
				s = string(buf[pos : pos+n])
			}
			out[i] = Value{Kind: KindString, S: s}
			pos += n
		default:
			return fmt.Errorf("sqldb: table %s: corrupt tuple tag %d", t.name, tag)
		}
	}
	return nil
}

var _ Table = (*RowStore)(nil)
