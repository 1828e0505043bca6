package shardbe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seedb/internal/sqldb"
)

// shard is the per-row form of Blocks: the shard of the row with global
// sequence number seq. ScatterTable places whole spans as views
// instead; the scatter oracle holds every span to this assignment.
func (b Blocks) shard(seq, shards int) int {
	if b.Total <= 0 {
		return 0
	}
	return min(seq*shards/b.Total, shards-1)
}

// sourceSchema is the schema of sourceRows' rows.
var sourceSchema = sqldb.MustSchema(
	sqldb.Column{Name: "s", Type: sqldb.TypeString},
	sqldb.Column{Name: "i", Type: sqldb.TypeInt},
	sqldb.Column{Name: "f", Type: sqldb.TypeFloat},
	sqldb.Column{Name: "b", Type: sqldb.TypeBool},
)

// sourceRows returns rows rows of sourceSchema with NULLs in every
// column type. The TEXT column cycles through its values backwards, so
// each block of them meets the values in a first-seen order of its own,
// unlike the whole.
func sourceRows(rows int) [][]sqldb.Value {
	rng := rand.New(rand.NewSource(int64(rows)))
	texts := []string{"", "a", "b", "c", "d", "e", "f"}
	out := make([][]sqldb.Value, rows)
	for r := range out {
		row := []sqldb.Value{
			sqldb.Str(texts[(rows-r)%len(texts)]),
			sqldb.Int(int64(rng.Intn(9) - 4)),
			sqldb.Float([]float64{math.Copysign(0, -1), 0.5, math.NaN(), math.Inf(1)}[rng.Intn(4)]),
			sqldb.Bool(rng.Intn(2) == 0),
		}
		for c := range row {
			if rng.Intn(5) == 0 {
				row[c] = sqldb.Null()
			}
		}
		out[r] = row
	}
	return out
}

// scatterSource builds a table of sourceRows(rows) with one Append.
func scatterSource(t *testing.T, layout sqldb.Layout, rows int) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	tab, err := db.CreateTable("t", sourceSchema, layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(sourceRows(rows)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAppendBatchesMatchRowByRow is the batch oracle of sqldb's Append,
// kept beside the comparison it shares with the scatter oracle: on both
// layouts, one Append of all the rows and a random split of them into
// batches (empty ones included) build the table n single-row Appends
// build — every cell, each dictionary's order, which columns hold a NULL
// vector, and the row heap's bytes and offsets.
func TestAppendBatchesMatchRowByRow(t *testing.T) {
	for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		for _, n := range []int{0, 1, 23, 700} {
			t.Run(fmt.Sprintf("%v/rows%d", layout, n), func(t *testing.T) {
				rows := sourceRows(n)
				build := func(batches ...[][]sqldb.Value) sqldb.Table {
					tab, err := sqldb.NewDB().CreateTable("t", sourceSchema, layout)
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range batches {
						if err := tab.Append(b); err != nil {
							t.Fatal(err)
						}
					}
					return tab
				}
				var single, split [][][]sqldb.Value
				for i := range rows {
					single = append(single, rows[i:i+1])
				}
				rng := rand.New(rand.NewSource(int64(n) + 1))
				for lo := 0; lo < n; {
					hi := min(n, lo+rng.Intn(40))
					split = append(split, rows[lo:hi])
					lo = hi
				}
				want := build(single...)
				sameTable(t, "one batch", build(rows), want)
				sameTable(t, fmt.Sprintf("%d batches", len(split)), build(split...), want)
			})
		}
	}
}

// TestScatterViewsHoldTheirBlocks is the scatter oracle: over ROW and
// COL sources and 1–5 children, every child ScatterTable places holds
// exactly the source rows Blocks.shard assigns it, in order, for Totals
// of 0 and below, below the row count, equal to it (23, divisible by no
// child count above 1) and above it. Batches the source appends later
// join the last child alone, and a child's Append fails and changes
// nothing.
func TestScatterViewsHoldTheirBlocks(t *testing.T) {
	const rows = 23
	more := sourceRows(7)
	for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		for n := 1; n <= 5; n++ {
			for _, total := range []int{-1, 0, 1, 9, rows - 1, rows, rows + 6} {
				t.Run(fmt.Sprintf("%v/children%d/total%d", layout, n, total), func(t *testing.T) {
					src := scatterSource(t, layout, rows)
					tab, _ := src.Table("t")
					part := Blocks{Total: total}
					dbs, _ := EmbeddedChildren(n)
					if err := ScatterTable(src, "t", dbs, part); err != nil {
						t.Fatal(err)
					}
					want := make([][][]sqldb.Value, n)
					for seq, row := range cells(tab) {
						shard := part.shard(seq, n)
						want[shard] = append(want[shard], row)
					}
					check := func(when string) {
						t.Helper()
						for i, db := range dbs {
							got, _ := db.Table("t")
							sameCells(t, fmt.Sprintf("%s: child %d", when, i), got, want[i])
						}
					}
					check("after the scatter")
					for _, batch := range [][][]sqldb.Value{more[:3], more[3:]} {
						if err := tab.Append(batch); err != nil {
							t.Fatal(err)
						}
						want[n-1] = append(want[n-1], batch...)
						check(fmt.Sprintf("at %d source rows", tab.NumRows()))
					}
					for i, db := range dbs {
						child, _ := db.Table("t")
						if err := child.Append(more[:1]); err == nil {
							t.Errorf("child %d took an append", i)
						}
					}
					if tab.NumRows() != rows+len(more) {
						t.Errorf("the source holds %d rows after refused child appends, want %d", tab.NumRows(), rows+len(more))
					}
					check("after refused appends")
				})
			}
		}
	}
}

// cells reads every row of tab.
func cells(tab sqldb.Table) [][]sqldb.Value {
	var out [][]sqldb.Value
	_ = tab.ScanRange(0, tab.NumRows(), nil, func(rv sqldb.RowView) error {
		row := make([]sqldb.Value, tab.Schema().NumColumns())
		for c := range row {
			row[c] = rv.Value(c)
		}
		out = append(out, row)
		return nil
	})
	return out
}

// sameCells fails unless got holds want's rows: its row count and every
// cell, floats by their bits.
func sameCells(t *testing.T, what string, got sqldb.Table, want [][]sqldb.Value) {
	t.Helper()
	if got.NumRows() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, got.NumRows(), len(want))
	}
	g := cells(got)
	for r := range want {
		for c := range want[r] {
			a, b := g[r][c], want[r][c]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S || math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: row %d column %d = %v, want %v", what, r, c, a, b)
			}
		}
	}
}

// sameTable fails unless got equals want: row count and every cell
// (floats by their bits), and the storage the cells do not show — a
// column store's dictionaries, in order, and which columns hold a NULL
// vector; a row store's encoded tuples.
func sameTable(t *testing.T, what string, got, want sqldb.Table) {
	t.Helper()
	sameCells(t, what, got, cells(want))
	if gs, ws := storage(got), storage(want); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: storage\n %v\nwant\n %v", what, gs, ws)
	}
}

// storage reads, through reflection, the parts of a table's storage its
// cells do not show: per ColStore column its dictionary and whether it
// has a NULL vector, or a RowStore's encoded tuples and their offsets.
func storage(tab sqldb.Table) []string {
	v := reflect.ValueOf(tab).Elem()
	var out []string
	switch tab.(type) {
	case *sqldb.ColStore:
		cols := v.FieldByName("cols")
		for c := 0; c < cols.Len(); c++ {
			col := cols.Index(c)
			dict := col.FieldByName("dict")
			words := make([]string, dict.Len())
			for d := range words {
				words[d] = dict.Index(d).String()
			}
			out = append(out, fmt.Sprintf("dict %q nulls %v", words, !col.FieldByName("nulls").IsNil()))
		}
	case *sqldb.RowStore:
		offsets := v.FieldByName("offsets")
		for r := 0; r < offsets.Len(); r++ {
			out = append(out, fmt.Sprint(offsets.Index(r).Int()))
		}
		out = append(out, fmt.Sprintf("%x", v.FieldByName("data").Bytes()))
	}
	return out
}
