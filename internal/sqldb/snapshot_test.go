package sqldb

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestTableVersionIsEpochAndRows: the token names a row count within one
// table incarnation — read twice at the same count it is equal, an
// append changes it, and a drop-and-reload to the same count does not
// bring it back.
func TestTableVersionIsEpochAndRows(t *testing.T) {
	db := NewDB()
	load := func() Table {
		tab, err := db.CreateTable("t", MustSchema(Column{Name: "a", Type: TypeInt}), LayoutCol)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := tab.Append([][]Value{{Int(int64(i))}}); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	tab := load()
	v1, _ := db.TableVersion("t")
	_, v2, rows, ok := db.TableState("t")
	if !ok || v2 != v1 || rows != 3 {
		t.Fatalf("second read at 3 rows = %q (%d rows, ok %t), want %q", v2, rows, ok, v1)
	}
	if err := tab.Append([][]Value{{Int(9)}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.TableVersion("t"); v == v1 {
		t.Fatalf("append kept version %q", v)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	load()
	if v, _ := db.TableVersion("t"); v == v1 {
		t.Fatalf("reload to the same row count reused version %q", v)
	}
}

// TestAppendAlongsideScans: a writer appends rows in batches of uneven
// sizes — new dictionary entries, a first NULL mid-stream, vectors
// outgrowing their arrays — while readers query rows [0, n) for the n
// they read. Every n must fall on a batch boundary and every answer be
// exactly that prefix's, on both layouts; -race checks that no reader
// touches memory an append writes. Between batches the writer tries one
// whose last row holds a value its column cannot store, after a new
// dictionary word and (before the first NULL) a NULL: it must fail and
// leave the row count, the version token and the storage unchanged.
func TestAppendAlongsideScans(t *testing.T) {
	for _, layout := range []Layout{LayoutCol, LayoutRow} {
		t.Run(layout.String(), func(t *testing.T) {
			db := NewDB()
			tab, err := db.CreateTable("t", MustSchema(
				Column{Name: "d", Type: TypeString},
				Column{Name: "m", Type: TypeInt},
			), layout)
			if err != nil {
				t.Fatal(err)
			}
			row := func(i int) []Value {
				d := Str(fmt.Sprintf("v%d", i%97))
				if i >= 500 && i%11 == 0 {
					d = Null()
				}
				return []Value{d, Int(int64(i))}
			}
			const total = 4000
			var batches [][][]Value
			boundary := map[int]bool{0: true}
			for lo, b := 0, 0; lo < total; b++ {
				hi := min(total, lo+[]int{1, 7, 64, 3, 250, 0, 31}[b%7])
				batch := make([][]Value, 0, hi-lo)
				for i := lo; i < hi; i++ {
					batch = append(batch, row(i))
				}
				batches, boundary[hi], lo = append(batches, batch), true, hi
			}
			bad := [][]Value{{Str("fresh"), Int(1)}, {Null(), Int(2)}, {Str("v1"), Str("not-an-int")}}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b, batch := range batches {
					if err := tab.Append(batch); err != nil {
						t.Error(err)
						return
					}
					if b%10 != 0 {
						continue
					}
					rows, before := tab.NumRows(), writerState(tab)
					version, _ := db.TableVersion("t")
					if err := tab.Append(bad); err == nil {
						t.Error("a batch with an uncoercible cell was appended")
						return
					}
					if v, _ := db.TableVersion("t"); tab.NumRows() != rows || v != version {
						t.Errorf("a failed batch moved the table from %d rows (%s) to %d (%s)", rows, version, tab.NumRows(), v)
					}
					if after := writerState(tab); !reflect.DeepEqual(after, before) {
						t.Errorf("a failed batch at %d rows changed the storage:\n %v\nwant\n %v", rows, after, before)
					}
				}
			}()
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < total; n = tab.NumRows() {
						if !boundary[n] {
							t.Errorf("a reader saw %d rows, inside a batch", n)
							return
						}
						if n == 0 {
							continue
						}
						res, err := db.QueryOpts("SELECT d, COUNT(*), SUM(m) FROM t GROUP BY d", ExecOptions{Hi: n, Workers: 2})
						if err != nil {
							t.Error(err)
							return
						}
						var count int64
						var sum float64
						for _, g := range res.Rows {
							s, _ := g[2].AsFloat()
							count, sum = count+g[1].I, sum+s
						}
						if want := float64(n) * float64(n-1) / 2; count != int64(n) || sum != want {
							t.Errorf("at n=%d: COUNT %d, SUM %g; want %d, %g", n, count, sum, n, want)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// writerState copies the storage a failed Append must leave as it was:
// a column store's vectors, dictionaries (lookup and published length
// included) and NULL vectors, or a row store's heap.
func writerState(tab Table) any {
	switch s := tab.(type) {
	case *ColStore:
		var out []any
		for i, c := range s.cols {
			out = append(out, slices.Clone(c.ints), slices.Clone(c.flts), slices.Clone(c.dict),
				slices.Clone(c.codes), slices.Clone(c.nulls), maps.Clone(s.index[i]), s.dictLen[i].Load())
		}
		return out
	case *RowStore:
		return []any{slices.Clone(s.data), slices.Clone(s.offsets)}
	}
	return nil
}

// TestCopyRangeAlongsideAppends: CopyRange copies a range of a source a
// writer keeps appending to, while a reader queries the copy as it is
// published. The reader sees no row or every copied one, never part;
// the copy holds exactly the source rows of its range, on both layouts.
// A non-empty destination, another layout or another schema is refused.
func TestCopyRangeAlongsideAppends(t *testing.T) {
	schema := MustSchema(Column{Name: "d", Type: TypeString}, Column{Name: "m", Type: TypeInt})
	for _, layout := range []Layout{LayoutCol, LayoutRow} {
		t.Run(layout.String(), func(t *testing.T) {
			src, err := NewDB().CreateTable("t", schema, layout)
			if err != nil {
				t.Fatal(err)
			}
			const total = 4000
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total; i++ {
					d := Str(fmt.Sprintf("v%d", i%97))
					if i%13 == 0 {
						d = Null()
					}
					if err := src.Append([][]Value{{d, Int(int64(i))}}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for copies := 0; src.NumRows() < total; copies++ {
				hi := src.NumRows()
				lo := hi / 3
				db := NewDB()
				dst, err := db.CreateTable("c", schema, layout)
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						res, err := db.QueryOpts("SELECT COUNT(*), SUM(m) FROM c", ExecOptions{})
						if err != nil {
							t.Error(err)
							return
						}
						count, sum := res.Rows[0][0].I, res.Rows[0][1]
						if count == 0 && lo < hi {
							continue
						}
						if f, _ := sum.AsFloat(); count != int64(hi-lo) || f != float64((lo+hi-1)*(hi-lo)/2) {
							t.Errorf("copy %d of rows [%d, %d): a reader saw COUNT %d, SUM %v", copies, lo, hi, count, sum)
						}
						return
					}
				}()
				if err := CopyRange(dst, src, lo, hi); err != nil {
					t.Fatal(err)
				}
				<-done
			}
			wg.Wait()

			dst, _ := NewDB().CreateTable("c", schema, layout)
			if err := CopyRange(dst, src, 0, 1); err != nil {
				t.Fatal(err)
			}
			other := LayoutRow
			if layout == LayoutRow {
				other = LayoutCol
			}
			wrongLayout, _ := NewDB().CreateTable("c", schema, other)
			wrongSchema, _ := NewDB().CreateTable("c", MustSchema(Column{Name: "d", Type: TypeString}, Column{Name: "m", Type: TypeFloat}), layout)
			for what, to := range map[string]Table{"non-empty": dst, "other layout": wrongLayout, "other schema": wrongSchema} {
				if err := CopyRange(to, src, 0, 1); err == nil {
					t.Errorf("copy into a %s table succeeded", what)
				}
			}
		})
	}
}
