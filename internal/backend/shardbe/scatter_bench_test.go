package shardbe_test

// Layer microbenchmark for the block scatter the sharded set-up runs:
// one ScatterTable call places 400k dataset.TrafficSpec rows across
// four embedded children, a view per child that copies no row
// (sqldb.DB.CreateView), on both layouts. The source build is untimed.
//
//	go test ./internal/backend/shardbe -run '^$' -bench ScatterTable -benchmem

import (
	"testing"

	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

func BenchmarkScatterTable(b *testing.B) {
	const rows = 400_000
	spec := dataset.TrafficSpec().WithRows(rows).WithSeed(1)
	for _, layout := range []sqldb.Layout{sqldb.LayoutCol, sqldb.LayoutRow} {
		b.Run(layout.String(), func(b *testing.B) {
			src := sqldb.NewDB()
			if _, err := dataset.BuildSynth(src, spec, layout); err != nil {
				b.Fatal(err)
			}
			dbs, _ := shardbe.EmbeddedChildren(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := shardbe.ScatterTable(src, spec.Name, dbs, shardbe.Blocks{Total: rows}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			n := 0
			for _, db := range dbs {
				t, _ := db.Table(spec.Name)
				n += t.NumRows()
			}
			if n != rows {
				b.Fatalf("children hold %d rows, want %d", n, rows)
			}
		})
	}
}
