package shardbe_test

// Layer microbenchmark for the router's per-table statistics: one
// Router.TableStats call is a COUNT(DISTINCT) fan-out per non-FLOAT
// column, so on dataset.TrafficSpec its cost is grouped child scans over
// eight low-cardinality columns; the three FLOAT columns cost nothing.
//
//	go test ./internal/backend/shardbe -run '^$' -bench RouterStats -benchmem

import (
	"context"
	"testing"

	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

const statsBenchRows = 400_000

func BenchmarkRouterStats(b *testing.B) {
	spec := dataset.TrafficSpec().WithRows(statsBenchRows).WithSeed(1)
	src := sqldb.NewDB()
	if _, err := dataset.BuildSynth(src, spec, sqldb.LayoutCol); err != nil {
		b.Fatal(err)
	}
	dbs, children := shardbe.EmbeddedChildren(4)
	if err := shardbe.ScatterTable(src, spec.Name, dbs, shardbe.Blocks{Total: statsBenchRows}); err != nil {
		b.Fatal(err)
	}
	r, err := shardbe.New(children, shardbe.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := r.TableStats(ctx, spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		if st.Rows != statsBenchRows {
			b.Fatalf("stats cover %d rows, want %d", st.Rows, statsBenchRows)
		}
	}
}
