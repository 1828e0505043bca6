package seedb_test

import (
	"context"
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
	regions := []string{"east", "west", "north", "south"}
	segments := []string{"retail", "online"}
	var rows [][]seedb.Value
	for i := 0; i < 400; i++ {
		price := seedb.Float(float64((i*7)%200) * 0.25)
		if i%13 == 0 {
			price = seedb.Null()
		}
		rows = append(rows, []seedb.Value{
			seedb.Str(regions[i%len(regions)]),
			seedb.Str(segments[(i/3)%len(segments)]),
			seedb.Int(int64(i % 9)),
			price,
		})
	}
	if err := c.AppendRows("sales", rows); err != nil {
		t.Fatal(err)
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
