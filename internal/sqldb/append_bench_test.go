package sqldb_test

// Layer microbenchmark for the write path: one /api/ingest-sized batch,
// 100 dataset.TrafficSpec rows, appended with one Table.Append to a
// 400k-row TrafficSpec table, on both layouts. Every 1 000 batches the
// table is reset to a fresh copy of the 400k rows (sqldb.CloneTable,
// untimed), whose arrays are full, so each cycle adds 100k rows — a
// quarter of the table, the room append's growth makes at this size —
// and pays the array moves a table of this size pays per 100k appended
// rows. Those moves dominate the bytes per batch; the allocation count
// is what publishing costs. The appended rows cycle through a pool of
// ten batches drawn from another seed.
//
//	go test ./internal/sqldb -run '^$' -bench '^BenchmarkAppend$' -benchmem

import (
	"slices"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

func BenchmarkAppend(b *testing.B) {
	const rows, batch, resetEvery = 400_000, 100, 1000
	var pool [][][]sqldb.Value
	var next [][]sqldb.Value
	if err := dataset.TrafficSpec().WithRows(10 * batch).WithSeed(2).Generate(func(vals []sqldb.Value) error {
		if next = append(next, slices.Clone(vals)); len(next) == batch {
			pool, next = append(pool, next), nil
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	spec := dataset.TrafficSpec().WithRows(rows).WithSeed(1)
	for _, layout := range []sqldb.Layout{sqldb.LayoutCol, sqldb.LayoutRow} {
		src, err := dataset.BuildSynth(sqldb.NewDB(), spec, layout)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(layout.String(), func(b *testing.B) {
			var tab sqldb.Table
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%resetEvery == 0 {
					b.StopTimer()
					tab = sqldb.CloneTable(src)
					b.StartTimer()
				}
				if err := tab.Append(pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
