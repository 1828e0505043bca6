package shardbe_test

// Layer microbenchmark for one engine statement through the router: the
// first phase statement of a cold_scan-shaped COMB + CI Recommend (one
// UNION ALL over every view) on 400k dataset.TrafficSpec rows, run over
// a 40k-row phase that straddles the boundary between children 0 and 1
// of four. "router" sends it as the engine does, marked decomposable, so
// the two children run it as written and their partial rows come back
// unmerged; "source" runs it on the unsharded store.
//
//	go test ./internal/backend/shardbe -run '^$' -bench RouterExec -benchmem

import (
	"context"
	"sync"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

const execBenchRows = 400_000

// firstStatement records the first statement an engine sends.
type firstStatement struct {
	backend.Backend
	once sync.Once
	sql  string
}

func (f *firstStatement) Exec(ctx context.Context, q string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	f.once.Do(func() { f.sql = q })
	return f.Backend.Exec(ctx, q, opts)
}

func BenchmarkRouterExec(b *testing.B) {
	spec := dataset.TrafficSpec().WithRows(execBenchRows).WithSeed(1)
	src := sqldb.NewDB()
	if _, err := dataset.BuildSynth(src, spec, sqldb.LayoutCol); err != nil {
		b.Fatal(err)
	}
	source := backend.NewEmbedded(src)
	rec := &firstStatement{Backend: source}
	req := core.Request{Table: spec.Name, TargetWhere: "price > 22.50 AND sessions < 105"}
	if _, err := core.NewEngine(rec).Recommend(context.Background(), req, core.Options{Strategy: core.Comb, Pruning: core.CIPruning, K: 5}); err != nil {
		b.Fatal(err)
	}
	dbs, children := shardbe.EmbeddedChildren(4)
	if err := shardbe.ScatterTable(src, spec.Name, dbs, shardbe.Blocks{Total: execBenchRows}); err != nil {
		b.Fatal(err)
	}
	r, err := shardbe.New(children, shardbe.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := backend.ExecOptions{Lo: 80_000, Hi: 120_000}
	for _, bc := range []struct {
		name  string
		be    backend.Backend
		parts int
	}{{"source", source, 0}, {"router", r, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := backend.WithDecomposable(context.Background(), spec.Name)
			b.ReportAllocs()
			for b.Loop() {
				rows, _, err := bc.be.Exec(ctx, rec.sql, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows.Parts) != bc.parts {
					b.Fatalf("%d parts, want %d", len(rows.Parts), bc.parts)
				}
			}
		})
	}
}
