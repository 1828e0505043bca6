package sqldb

import (
	"fmt"
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
			if err := tab.AppendRow([]Value{Int(int64(i))}); err != nil {
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
	if err := tab.AppendRow([]Value{Int(9)}); err != nil {
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

// TestAppendAlongsideScans: a writer appends rows — new dictionary
// entries, a first NULL mid-stream, vectors outgrowing their arrays —
// while readers query rows [0, n) for the n they read. Every answer must
// be exactly that prefix's, on both layouts; -race checks that no reader
// touches memory an append writes.
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
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total; i++ {
					if err := tab.AppendRow(row(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < total; n = tab.NumRows() {
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
