package sqldb_test

// Layer microbenchmarks for table statistics. StatsAfterAppend is the
// layer under the benchmark's backend.stats_ms on ingest_stream: the
// first StatsContext after a 100-row append to a TrafficSpec table (the
// append is untimed). StatsCold is the first StatsContext on a freshly
// built table (the build is untimed), the statistics part of the first
// recommendation after a load.
//
//	go test ./internal/sqldb -run '^$' -bench 'StatsAfterAppend|StatsCold' -benchmem

import (
	"context"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

func BenchmarkStatsAfterAppend(b *testing.B) {
	const batch = 100
	ctx := context.Background()
	// Appended rows come from a second TrafficSpec draw, so they carry
	// new float values as ingest batches do.
	pool, err := dataset.BuildSynth(sqldb.NewDB(), dataset.TrafficSpec().WithRows(benchRows).WithSeed(2), sqldb.LayoutCol)
	if err != nil {
		b.Fatal(err)
	}
	for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		b.Run(layout.String(), func(b *testing.B) {
			db := sqldb.NewDB()
			var tab sqldb.Table
			next := pool.NumRows() // forces a load on the first iteration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if next+batch > pool.NumRows() {
					// Reload so the table stays near benchRows rows.
					if tab != nil {
						if err := db.DropTable("traffic"); err != nil {
							b.Fatal(err)
						}
					}
					if tab, err = dataset.BuildSynth(db, dataset.TrafficSpec().WithRows(benchRows).WithSeed(1), layout); err != nil {
						b.Fatal(err)
					}
					if _, err := db.StatsContext(ctx, "traffic"); err != nil {
						b.Fatal(err)
					}
					next = 0
				}
				var rows [][]sqldb.Value
				err := pool.ScanRange(next, next+batch, nil, func(rv sqldb.RowView) error {
					row := make([]sqldb.Value, pool.Schema().NumColumns())
					for c := range row {
						row[c] = rv.Value(c)
					}
					rows = append(rows, row)
					return nil
				})
				if err == nil {
					err = tab.Append(rows)
				}
				if err != nil {
					b.Fatal(err)
				}
				next += batch
				b.StartTimer()
				if _, err := db.StatsContext(ctx, "traffic"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStatsCold(b *testing.B) {
	ctx := context.Background()
	spec := dataset.TrafficSpec().WithRows(benchRows).WithSeed(1)
	for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		b.Run(layout.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := sqldb.NewDB()
				if _, err := dataset.BuildSynth(db, spec, layout); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := db.StatsContext(ctx, spec.Name)
				if err != nil {
					b.Fatal(err)
				}
				if st.Rows != benchRows {
					b.Fatalf("stats cover %d rows, want %d", st.Rows, benchRows)
				}
			}
		})
	}
}
