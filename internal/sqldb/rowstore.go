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
// String fields decode through a per-scan intern table so scans do not
// allocate per row, but they still pay the per-field hash — the analogue
// of a row store's per-attribute copy out of the page.
//
// Appends are safe alongside concurrent scans, as in ColStore: a scan
// reads the published row count once, then the heap headers, and never
// reads a tuple at or past that count; Append writes past it and
// publishes the headers when an array moved, then the row count, once
// per batch.
//
// A view (DB.CreateView) is a RowStore with src set: it holds no rows,
// and its snapshot is tuples [lo, hi) of src's.
type RowStore struct {
	name   string
	schema *Schema
	width  int
	src    *RowStore
	lo, hi int
	// Writer side: serialized tuples back to back, and offsets[i] = start
	// of row i in data, with a sentinel at the end.
	data    []byte
	offsets []int
	// Reader side: the writer's headers as of the last move, and the
	// published row count.
	heap atomic.Pointer[rowHeap]
	rows atomic.Int64
}

// rowHeap is one published pair of RowStore headers.
type rowHeap struct {
	data    []byte
	offsets []int
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
	t.publishHeap()
	return t
}

// Name returns the table name.
func (t *RowStore) Name() string { return t.name }

// Schema returns the table schema.
func (t *RowStore) Schema() *Schema { return t.schema }

// Layout returns LayoutRow.
func (t *RowStore) Layout() Layout { return LayoutRow }

// NumRows returns the number of published rows.
func (t *RowStore) NumRows() int {
	if t.src != nil {
		lo, hi := clampRange(t.lo, t.hi, t.src.NumRows())
		return hi - lo
	}
	return int(t.rows.Load())
}

// publishHeap publishes the writer's current headers.
func (t *RowStore) publishHeap() {
	t.heap.Store(&rowHeap{data: t.data, offsets: t.offsets})
}

// Append implements Table: it checks the batch first (Schema.CheckRows),
// serializes its tuples onto the heap, and publishes the headers (when an
// array moved) and the row count once.
func (t *RowStore) Append(rows [][]Value) error {
	if t.src != nil {
		return errViewAppend(t.name)
	}
	if err := t.schema.CheckRows(rows); err != nil {
		return fmt.Errorf("sqldb: table %s: %w", t.name, err)
	}
	for _, row := range rows {
		for i, v := range row {
			t.data = appendField(t.data, v, t.schema.Column(i).Type)
		}
		t.offsets = append(t.offsets, len(t.data))
	}
	// An array only moves to a larger capacity.
	if h := t.heap.Load(); cap(t.data) != cap(h.data) || cap(t.offsets) != cap(h.offsets) {
		t.publishHeap()
	}
	t.rows.Add(int64(len(rows)))
	return nil
}

// appendField appends to data the encoding of v, a value storable in a
// column of type typ, converted to that type (see storable).
func appendField(data []byte, v Value, typ ColumnType) []byte {
	switch {
	case v.Kind == KindNull:
		return append(data, tagNull)
	case typ == TypeInt:
		i, _ := v.AsInt()
		return binary.LittleEndian.AppendUint64(append(data, tagInt), uint64(i))
	case typ == TypeFloat:
		f, _ := v.AsFloat()
		return binary.LittleEndian.AppendUint64(append(data, tagFloat), math.Float64bits(f))
	case typ == TypeBool:
		return append(data, tagBool, byte(Bool(v.I != 0).I))
	default:
		data = binary.LittleEndian.AppendUint32(append(data, tagStr), uint32(len(v.S)))
		return append(data, v.S...)
	}
}

// snapshot reads the table for one scan: the row count first, then the
// heap headers, published before it, so they hold that many tuples. It
// returns those tuples' bytes and their offsets, sentinel included. A
// view's offsets are its own tuples' within its source's bytes.
func (t *RowStore) snapshot() (data []byte, offsets []int) {
	if t.src != nil {
		data, offsets = t.src.snapshot()
		lo, hi := clampRange(t.lo, t.hi, len(offsets)-1)
		return data[:offsets[hi]], offsets[lo : hi+1]
	}
	n := t.NumRows()
	h := t.heap.Load()
	offsets = h.offsets[:n+1]
	return h.data[:offsets[n]], offsets
}

// rowSlice is the RowView over one deserialized tuple.
type rowSlice []Value

// Value returns the col-th field of the tuple.
func (r rowSlice) Value(col int) Value { return r[col] }

// ScanRange implements Table. The cols hint is ignored: a row store
// deserializes the whole tuple on every scan. The scratch tuple is reused
// across rows, so the RowView is only valid inside the callback.
func (t *RowStore) ScanRange(lo, hi int, cols []int, fn func(row RowView) error) error {
	data, offsets := t.snapshot()
	lo, hi = clampRange(lo, hi, len(offsets)-1)
	scratch := make([]Value, t.width)
	view := RowView(rowSlice(scratch)) // once: converting per row allocates per row
	intern := make(map[string]string)
	for i := lo; i < hi; i++ {
		if err := t.decode(data[offsets[i]:offsets[i+1]], scratch, intern); err != nil {
			return err
		}
		if err := fn(view); err != nil {
			return err
		}
	}
	return nil
}

// decode deserializes one tuple into out, interning strings in intern
// (the scan's own table: readers never touch writer state).
func (t *RowStore) decode(buf []byte, out []Value, intern map[string]string) error {
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
			s, ok := intern[string(buf[pos:pos+n])]
			if !ok {
				s = string(buf[pos : pos+n])
				intern[s] = s
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
