package seedb_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"seedb"
)

// loadExactTable populates a client with a small table whose float
// measures are exactly summable (multiples of 0.25).
func loadExactTable(t *testing.T, c *seedb.Client) {
	t.Helper()
	schema, err := seedb.NewSchema(
		seedb.Column{Name: "region", Type: seedb.TypeString},
		seedb.Column{Name: "segment", Type: seedb.TypeString},
		seedb.Column{Name: "qty", Type: seedb.TypeInt},
		seedb.Column{Name: "price", Type: seedb.TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("sales", schema, seedb.ColumnLayout); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("sales", exactRows(0, 400)); err != nil {
		t.Fatal(err)
	}
}

// exactRows returns rows [from, to) of loadExactTable's table. Rows
// from 400 on lean to "north" and to higher prices, so a phase that
// reads them early estimates otherwise than one that reads them last.
func exactRows(from, to int) [][]seedb.Value {
	regions := []string{"east", "west", "north", "south"}
	segments := []string{"retail", "online"}
	var rows [][]seedb.Value
	for i := from; i < to; i++ {
		region := regions[i%len(regions)]
		price := seedb.Float(float64((i*7)%200) * 0.25)
		if i >= 400 {
			price = seedb.Float(float64((i*11)%300)*0.25 + 50)
			if i%3 != 0 {
				region = "north"
			}
		}
		if i%13 == 0 {
			price = seedb.Null()
		}
		rows = append(rows, []seedb.Value{
			seedb.Str(region),
			seedb.Str(segments[(i/3)%len(segments)]),
			seedb.Int(int64(i % 9)),
			price,
		})
	}
	return rows
}

// TestShardedAfterAppendsMatchesUnsharded is the after-ingest oracle: an
// unsharded client and a NewSharded(4) one load the same exactly-summable
// table and then take the same batches of uneven sizes. The appended
// rows join the last shard, so the router's global row order is the
// order the rows were added in, and COMB with CI pruning and without
// pruning must return the same ranked views on both — and the same
// estimate for every view, pruned ones included, whose utilities depend
// on the rows read before pruning — utilities equal bit for bit.
func TestShardedAfterAppendsMatchesUnsharded(t *testing.T) {
	ctx := context.Background()
	clients := []*seedb.Client{seedb.New(), seedb.NewSharded(4)}
	for _, c := range clients {
		loadExactTable(t, c)
		from := 400
		for _, n := range []int{1, 37, 5, 120, 64, 3} {
			if err := c.AppendRows("sales", exactRows(from, from+n)); err != nil {
				t.Fatal(err)
			}
			from += n
		}
	}
	req := seedb.Request{Table: "sales", TargetWhere: "segment = 'online'",
		Aggs: []seedb.AggFunc{seedb.AggCount, seedb.AggSum, seedb.AggAvg, seedb.AggMin, seedb.AggMax}}
	for _, pruning := range []seedb.PruningScheme{seedb.CIPruning, seedb.NoPruning} {
		opts := seedb.Options{Strategy: seedb.Comb, Pruning: pruning, K: 2, KeepAllViews: true}
		var res [2]*seedb.Result
		for i, c := range clients {
			var err error
			if res[i], err = c.Recommend(ctx, req, opts); err != nil {
				t.Fatal(err)
			}
		}
		want, got := res[0], res[1]
		if pruning == seedb.CIPruning && want.Metrics.PrunedViews == 0 {
			t.Fatal("CI pruning pruned no view: the oracle would not see an order change")
		}
		if got.Metrics.PrunedViews != want.Metrics.PrunedViews {
			t.Errorf("%v: sharded run pruned %d views, unsharded %d", pruning, got.Metrics.PrunedViews, want.Metrics.PrunedViews)
		}
		sameViews(t, fmt.Sprintf("%v top %d", pruning, opts.K), got.Recommendations, want.Recommendations)
		sameViews(t, fmt.Sprintf("%v every view", pruning), got.AllViews, want.AllViews)
	}
}

// sameViews fails unless got and want list the same views in the same
// order, each with the same utility bits and partial flag.
func sameViews(t *testing.T, what string, got, want []seedb.Recommendation) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d views, want %d (and at least one)", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.View != w.View || math.Float64bits(g.Utility) != math.Float64bits(w.Utility) || g.Partial != w.Partial {
			t.Errorf("%s: view %d = %v (utility %v, partial %t), want %v (utility %v, partial %t)",
				what, i, g.View, g.Utility, g.Partial, w.View, w.Utility, w.Partial)
		}
	}
}

// TestShardedClientQueryAndCache checks a sharded client's shape, raw
// SQL routing, fan-out accounting and versioned cache invalidation
// through appends. That its recommendations equal an unsharded run's is
// the conformancetest oracle's job (a router over 1–4 children).
func TestShardedClientQueryAndCache(t *testing.T) {
	ctx := context.Background()
	c := seedb.NewSharded(2)
	if c.Shards() != 2 || c.DB() != nil {
		t.Fatalf("sharded client shape: shards=%d db=%v", c.Shards(), c.DB())
	}
	loadExactTable(t, c)

	res, err := c.Query("SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY 2 DESC, region LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].I != 100 {
		t.Errorf("raw query rows = %+v", res.Rows)
	}

	req := seedb.Request{Table: "sales", TargetWhere: "segment = 'online'"}
	opts := seedb.Options{Strategy: seedb.Sharing, K: 3, EnableCache: true, ScanParallelism: 1}
	cold, err := c.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.ServedFromCache {
		t.Fatal("cold run served from cache")
	}
	if cold.Metrics.ShardQueries == 0 || cold.Metrics.ShardFanout < cold.Metrics.ShardQueries {
		t.Errorf("shard fan-out not recorded: %+v", cold.Metrics)
	}
	plain := seedb.New()
	loadExactTable(t, plain)
	if res, err := plain.Recommend(ctx, req, opts); err != nil || res.Metrics.ShardQueries != 0 {
		t.Errorf("unsharded run recorded shard queries (err %v): %+v", err, res.Metrics)
	}
	warm, err := c.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Metrics.ServedFromCache {
		t.Errorf("repeat request not cached: %+v", warm.Metrics)
	}

	// Appending through the partitioner must change the version vector
	// and invalidate the cached result.
	if err := c.AppendRows("sales", [][]seedb.Value{
		{seedb.Str("east"), seedb.Str("online"), seedb.Int(1), seedb.Float(2.5)},
	}); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Metrics.ServedFromCache || fresh.Metrics.QueriesExecuted == 0 {
		t.Errorf("post-append request served stale: %+v", fresh.Metrics)
	}
}

// TestFailedAppendLandsNowhere: AppendRows is all or nothing. A batch
// whose row k holds a value its column cannot store fails, on an
// unsharded client and on one of three shards, and leaves the table's
// version token (on the router, every child's) and row count as they
// were: rows 0..k−1 land on no store.
func TestFailedAppendLandsNowhere(t *testing.T) {
	ctx := context.Background()
	for name, c := range map[string]*seedb.Client{"New": seedb.New(), "NewSharded(3)": seedb.NewSharded(3)} {
		t.Run(name, func(t *testing.T) {
			loadExactTable(t, c)
			before, err := c.Backend().TableInfo(ctx, "sales")
			if err != nil {
				t.Fatal(err)
			}
			var rows [][]seedb.Value
			for i := 0; i < 5; i++ {
				rows = append(rows, []seedb.Value{seedb.Str("east"), seedb.Str("online"), seedb.Int(int64(i)), seedb.Float(1)})
			}
			rows[4][2] = seedb.Str("four")
			if err := c.AppendRows("sales", rows); err == nil {
				t.Fatal("a batch with an uncoercible cell was appended")
			}
			after, err := c.Backend().TableInfo(ctx, "sales")
			if err != nil {
				t.Fatal(err)
			}
			if after.Version != before.Version || after.Rows != before.Rows {
				t.Errorf("a failed append moved the table from %d rows (%s) to %d (%s)", before.Rows, before.Version, after.Rows, after.Version)
			}
		})
	}
}

// TestFailedLoadLeavesWhatUnshardedLeaves: a LoadCSV that fails on a
// bad cell leaves a sharded client's table as it leaves an unsharded
// client's — created, holding the rows loaded before the failure, and
// taken, so a second CreateTable fails — and the router reads it.
func TestFailedLoadLeavesWhatUnshardedLeaves(t *testing.T) {
	schema, err := seedb.NewSchema(seedb.Column{Name: "a", Type: seedb.TypeString}, seedb.Column{Name: "n", Type: seedb.TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for _, c := range []*seedb.Client{seedb.New(), seedb.NewSharded(2)} {
		if err := c.LoadCSV("t", schema, seedb.ColumnLayout, strings.NewReader("a,n\nx,1\ny,2\nz,oops\n")); err == nil {
			t.Fatalf("%d shards: a CSV with a bad cell loaded", c.Shards())
		}
		res, err := c.Query("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatalf("%d shards: %v", c.Shards(), err)
		}
		counts = append(counts, res.Rows[0][0].I)
		if err := c.CreateTable("t", schema, seedb.ColumnLayout); err == nil {
			t.Errorf("%d shards: CreateTable took the name of a table a failed load left", c.Shards())
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("after a failed load the sharded client counts %d rows, the unsharded one %d", counts[1], counts[0])
	}
}

// TestShardedClientLoadDataset checks built-in dataset loads scatter
// across shards and recommendations come back sane.
func TestShardedClientLoadDataset(t *testing.T) {
	c := seedb.NewSharded(4)
	if err := c.LoadDatasetRows("census", seedb.ColumnLayout, 800); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadDatasetRows("census", seedb.ColumnLayout, 800); err == nil {
		t.Error("duplicate load should error")
	}
	res, err := c.Recommend(context.Background(), seedb.Request{
		Table:       "census",
		TargetWhere: "marital = 'Unmarried'",
	}, seedb.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) != 3 || res.Metrics.ShardQueries == 0 {
		t.Errorf("sharded dataset recommend: %d recs, metrics %+v", len(res.Recommendations), res.Metrics)
	}
}
