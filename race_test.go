package seedb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRecommendParallelScansAndLoads drives the full stack
// under -race: concurrent Recommend calls using phased pruning and
// intra-query parallel scans (ScanParallelism > 1) against the shared
// result cache, while other goroutines mutate the catalog (LoadCSV into
// fresh tables, drops) — the operations that bump dataset versions and
// invalidate cache keys. Writes go to tables the recommendations never
// scan: sqldb documents that per-table loading must finish before that
// table is queried, and the race this test polices is in the shared
// engine/cache/executor state, not in a single table's vectors.
func TestConcurrentRecommendParallelScansAndLoads(t *testing.T) {
	client := newCachedCensusClient(t)
	ctx := context.Background()
	req := Request{Table: "census", TargetWhere: "marital = 'Unmarried'"}
	schema, err := NewSchema(
		Column{Name: "d", Type: TypeString},
		Column{Name: "m", Type: TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}

	const recommenders = 4
	const loaders = 2
	const rounds = 6
	var wg sync.WaitGroup
	errs := make([]error, recommenders+loaders)

	for g := 0; g < recommenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Alternate strategies so both the single-pass and the
				// phased (pruning) paths run concurrently; vary K so
				// whole-request keys differ and real executions overlap
				// cache hits.
				opts := Options{
					Strategy:        Comb,
					Pruning:         CIPruning,
					K:               2 + (g+i)%3,
					ScanParallelism: 3,
					EnableCache:     true,
				}
				if (g+i)%2 == 0 {
					opts.Strategy = Sharing
					opts.Pruning = NoPruning
				}
				if _, err := client.Recommend(ctx, req, opts); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}

	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("scratch_%d_%d", l, i)
				csv := "d,m\na,1.5\nb,2.5\nc,3.5\n"
				if err := client.LoadCSV(name, schema, ColumnLayout, strings.NewReader(csv)); err != nil {
					errs[recommenders+l] = err
					return
				}
				if err := client.DB().DropTable(name); err != nil {
					errs[recommenders+l] = err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}

	// Appends to the queried table invalidate its version: the next
	// request must recompute, not serve the pre-append cached result.
	tab, ok := client.DB().Table("census")
	if !ok {
		t.Fatal("census table missing")
	}
	row := make([]Value, tab.Schema().NumColumns())
	for i := range row {
		if tab.Schema().Column(i).Type == TypeString {
			row[i] = Str("Unmarried")
		} else {
			row[i] = Float(1)
		}
	}
	if err := tab.Append([][]Value{row}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: Sharing, K: 2, ScanParallelism: 3, EnableCache: true}
	res, err := client.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ServedFromCache {
		t.Fatal("post-append request served a stale cached result")
	}
}

// TestConcurrentShardedRecommends drives the shard router under -race:
// many concurrent Recommend calls over one sharded client, each fanning
// every view query out across the children (which layers fan-out
// goroutines under the engine's own query worker pool), against the
// shared cache and the router's stats memo. Appends happen after the
// concurrent phase — sqldb tables, sharded or not, require per-table
// loading to finish before queries start (see the test above) — and
// must invalidate the router's version vector.
func TestConcurrentShardedRecommends(t *testing.T) {
	client := NewSharded(3)
	if err := client.LoadDatasetRows("census", ColumnLayout, 1500); err != nil {
		t.Fatal(err)
	}
	client.EnableCache(0)
	ctx := context.Background()
	req := Request{Table: "census", TargetWhere: "marital = 'Unmarried'"}

	const workers = 4
	const rounds = 5
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				opts := Options{
					Strategy:        Comb,
					Pruning:         CIPruning,
					K:               2 + (g+i)%3,
					ScanParallelism: 2,
					EnableCache:     true,
				}
				if (g+i)%2 == 0 {
					opts.Strategy = Sharing
					opts.Pruning = NoPruning
				}
				res, err := client.Recommend(ctx, req, opts)
				if err != nil {
					errs[g] = err
					return
				}
				// Every query this invocation actually paid for must have
				// fanned out (a run may also be answered entirely by
				// query-level cache hits, executing nothing).
				if res.Metrics.QueriesExecuted > 0 && res.Metrics.ShardQueries == 0 {
					errs[g] = fmt.Errorf("executed sharded queries did not fan out: %+v", res.Metrics)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}

	// A partitioner-routed append bumps some child's version, so the
	// router's version vector changes and the next request recomputes.
	ti, err := client.Backend().TableInfo(ctx, "census")
	if err != nil {
		t.Fatal(err)
	}
	row := make([]Value, len(ti.Columns))
	for c := range row {
		if ti.Columns[c].Type == TypeString {
			row[c] = Str("Unmarried")
		} else {
			row[c] = Float(0.25)
		}
	}
	if err := client.AppendRows("census", [][]Value{row}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Recommend(ctx, req, Options{Strategy: Sharing, K: 2, ScanParallelism: 2, EnableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ServedFromCache {
		t.Fatal("post-append sharded request served a stale cached result")
	}
}
