package sqldb

import (
	"maps"
	"slices"
)

// CloneTable returns a copy of t, which no writer may be appending to:
// a table of its own, outside any DB, whose arrays are full. The
// external-package benchmarks use it to reset a large table without
// building it again.
func CloneTable(t Table) Table {
	switch s := t.(type) {
	case *ColStore:
		c := NewColStore(s.name, s.schema)
		for i, v := range s.cols {
			c.cols[i] = columnVector{typ: v.typ, ints: slices.Clone(v.ints), flts: slices.Clone(v.flts),
				dict: slices.Clone(v.dict), codes: slices.Clone(v.codes), nulls: slices.Clone(v.nulls)}
			c.index[i] = maps.Clone(s.index[i])
			c.dictLen[i].Store(int32(len(v.dict)))
		}
		c.publishVecs()
		c.rows.Store(s.rows.Load())
		return c
	case *RowStore:
		r := NewRowStore(s.name, s.schema)
		r.data, r.offsets = slices.Clone(s.data), slices.Clone(s.offsets)
		r.publishHeap()
		r.rows.Store(s.rows.Load())
		return r
	}
	panic("sqldb: CloneTable of a table of type " + t.Layout().String())
}
