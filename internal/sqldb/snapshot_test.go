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

// TestViewAlongsideAppends: a writer appends batches of uneven sizes to
// a table while readers query two views of it (DB.CreateView), made
// once it holds 300 rows: an open-ended one from row lo on, and one
// bounded to rows [lo, hi). On both layouts, every row count a reader
// of the open-ended view sees ends on a batch boundary, and every
// answer is exactly those rows'; the bounded view never changes.
func TestViewAlongsideAppends(t *testing.T) {
	schema := MustSchema(Column{Name: "d", Type: TypeString}, Column{Name: "m", Type: TypeInt})
	const lo, hi, start, total = 100, 250, 300, 4000
	for _, layout := range []Layout{LayoutCol, LayoutRow} {
		t.Run(layout.String(), func(t *testing.T) {
			src, err := NewDB().CreateTable("t", schema, layout)
			if err != nil {
				t.Fatal(err)
			}
			appendRows := func(from, to int) error {
				batch := make([][]Value, 0, to-from)
				for i := from; i < to; i++ {
					d := Str(fmt.Sprintf("v%d", i%97))
					if i%13 == 0 {
						d = Null()
					}
					batch = append(batch, []Value{d, Int(int64(i))})
				}
				return src.Append(batch)
			}
			if err := appendRows(0, start); err != nil {
				t.Fatal(err)
			}
			open, bounded := NewDB(), NewDB()
			openView, err := open.CreateView(src, lo, -1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bounded.CreateView(src, lo, hi); err != nil {
				t.Fatal(err)
			}
			boundary := map[int]bool{start - lo: true}
			var cuts []int
			for at, b := start, 0; at < total; b++ {
				at = min(total, at+[]int{1, 7, 64, 3, 250, 0, 31}[b%7])
				cuts, boundary[at-lo] = append(cuts, at), true
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for from, b := start, 0; b < len(cuts); from, b = cuts[b], b+1 {
					if err := appendRows(from, cuts[b]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			// query returns the row count and SUM(m) a grouped scan of db's
			// view reads.
			query := func(db *DB) (int, float64, error) {
				res, err := db.QueryOpts("SELECT d, COUNT(*), SUM(m) FROM t GROUP BY d", ExecOptions{Workers: 2})
				if err != nil {
					return 0, 0, err
				}
				var count int64
				var sum float64
				for _, g := range res.Rows {
					s, _ := g[2].AsFloat()
					count, sum = count+g[1].I, sum+s
				}
				return int(count), sum, nil
			}
			sum := func(from, to int) float64 { return float64(from+to-1) * float64(to-from) / 2 }
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < total-lo; {
						count, s, err := query(open)
						if err != nil {
							t.Error(err)
							return
						}
						if !boundary[count] || s != sum(lo, lo+count) {
							t.Errorf("the open-ended view read %d rows summing to %g; want a batch boundary and %g", count, s, sum(lo, lo+count))
							return
						}
						if count, s, err = query(bounded); err != nil || count != hi-lo || s != sum(lo, hi) {
							t.Errorf("the bounded view read %d rows summing to %g (err %v); want %d and %g", count, s, err, hi-lo, sum(lo, hi))
							return
						}
						if n = openView.NumRows(); !boundary[n] {
							t.Errorf("the open-ended view counts %d rows, inside a batch", n)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
