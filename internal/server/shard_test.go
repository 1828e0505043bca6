package server

import (
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"seedb/internal/backend/sqlbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
	"seedb/internal/sqldriver"
)

// newShardedServer loads census, enables a 3-way shard router, and also
// registers a capability-poor database/sql backend for the degradation
// path.
func newShardedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	db := sqldb.NewDB()
	spec := dataset.Census().WithRows(2000)
	if _, err := dataset.Build(db, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.EnableSharding(3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterBackend("sql", sqlbe.New(sqldriver.Open(db), sqlbe.Options{})); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func TestEnableShardingValidation(t *testing.T) {
	s := New(sqldb.NewDB())
	if err := s.EnableSharding(0); err == nil {
		t.Error("0 shards should be rejected")
	}
	// A 1-child router is the valid single-shard baseline.
	if err := s.EnableSharding(1); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableSharding(2); err == nil {
		t.Error("double EnableSharding should be rejected (duplicate backend)")
	}
}

// TestShardBackendServesRecommendations exercises the full HTTP path
// against the shard router: recommend, raw SQL, and healthz counters.
func TestShardBackendServesRecommendations(t *testing.T) {
	_, srv := newShardedServer(t)

	var rec RecommendResponse
	code := postJSON(t, srv.URL+"/api/recommend", map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            3,
		"strategy":     "sharing",
		"backend":      ShardBackendName,
	}, &rec)
	if code != 200 {
		t.Fatalf("recommend via shard backend = %d", code)
	}
	if rec.Backend != ShardBackendName || len(rec.Recommendations) != 3 {
		t.Fatalf("response = backend %q, %d recs", rec.Backend, len(rec.Recommendations))
	}
	if rec.ShardQueries == 0 || rec.ShardFanout < rec.ShardQueries {
		t.Errorf("shard fan-out not reported: queries=%d fanout=%d", rec.ShardQueries, rec.ShardFanout)
	}
	if rec.StrategyDegraded {
		t.Errorf("embedded-children router should not degrade, got %+v", rec)
	}

	// Raw SQL through the router.
	var q queryResponse
	code = postJSON(t, srv.URL+"/api/query", map[string]any{
		"sql":     "SELECT marital, COUNT(*) FROM census GROUP BY marital",
		"backend": ShardBackendName,
	}, &q)
	if code != 200 || q.Count == 0 {
		t.Fatalf("shard query = %d, %+v", code, q)
	}

	// healthz surfaces the shard counters.
	var health struct {
		Executor map[string]any `json:"executor"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	for _, key := range []string{"shard_queries", "shard_fanout", "shard_straggler_max_ms", "strategy_degraded_requests"} {
		if _, ok := health.Executor[key]; !ok {
			t.Errorf("healthz executor missing %q: %+v", key, health.Executor)
		}
	}
	if n, _ := health.Executor["shard_queries"].(float64); n == 0 {
		t.Errorf("healthz shard_queries = %v, want > 0", health.Executor["shard_queries"])
	}
}

// TestStrategyDegradationIsRecorded sends a phased request to the
// capability-poor sql backend and checks the rewrite is reported on the
// response and counted on /healthz — the former silent path.
func TestStrategyDegradationIsRecorded(t *testing.T) {
	_, srv := newShardedServer(t)

	var rec RecommendResponse
	code := postJSON(t, srv.URL+"/api/recommend", map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            2,
		"strategy":     "comb",
		"backend":      "sql",
	}, &rec)
	if code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if !rec.StrategyDegraded || rec.DegradedFrom != "COMB" || rec.Strategy != "SHARING" {
		t.Errorf("degradation not reported: degraded=%v from=%q strategy=%q",
			rec.StrategyDegraded, rec.DegradedFrom, rec.Strategy)
	}

	// The warm (cached) repeat must still report the degradation.
	var warm RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            2,
		"strategy":     "comb",
		"backend":      "sql",
	}, &warm); code != 200 {
		t.Fatalf("warm recommend = %d", code)
	}
	if !warm.ServedFromCache || !warm.StrategyDegraded {
		t.Errorf("warm response: cached=%v degraded=%v", warm.ServedFromCache, warm.StrategyDegraded)
	}

	var health struct {
		Executor map[string]any `json:"executor"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if n, _ := health.Executor["strategy_degraded_requests"].(float64); n < 2 {
		t.Errorf("strategy_degraded_requests = %v, want >= 2", health.Executor["strategy_degraded_requests"])
	}
}

// TestLoadScattersToShards loads a dataset over HTTP after sharding is
// enabled and confirms the shard backend can serve it.
func TestLoadScattersToShards(t *testing.T) {
	db := sqldb.NewDB()
	s := New(db)
	if err := s.EnableSharding(2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	var loaded map[string]any
	if code := postJSON(t, srv.URL+"/api/datasets/load", map[string]any{
		"name": "census", "rows": 600,
	}, &loaded); code != 200 {
		t.Fatalf("load = %d (%+v)", code, loaded)
	}
	var q queryResponse
	code := postJSON(t, srv.URL+"/api/query", map[string]any{
		"sql":     "SELECT COUNT(*) FROM census",
		"backend": ShardBackendName,
	}, &q)
	if code != 200 || len(q.Rows) != 1 || q.Rows[0][0] != "600" {
		t.Fatalf("shard count after load = %d, %+v", code, q)
	}
}

// salesCells returns row i of an exactly-summable sales table as
// /api/ingest cells: prices are multiples of 0.25, NULL ("") every 13th.
// Rows from 400 on lean to "north" and to higher prices, so a phase that
// reads them early estimates otherwise than one that reads them last.
func salesCells(i int) []string {
	region := []string{"east", "west", "north", "south"}[i%4]
	price := float64((i*7)%200) * 0.25
	if i >= 400 {
		price = float64((i*11)%300)*0.25 + 50
		if i%3 != 0 {
			region = "north"
		}
	}
	cells := []string{region, []string{"retail", "online"}[(i/3)%2], strconv.Itoa(i % 9), strconv.FormatFloat(price, 'g', -1, 64)}
	if i%13 == 0 {
		cells[3] = ""
	}
	return cells
}

// TestShardAfterIngestMatchesEmbedded is the after-ingest oracle on the
// server: a 400-row exactly-summable table, split across four shard
// children by EnableSharding, takes batches of uneven sizes through
// /api/ingest. The ingested rows join the last child's view, so the
// router's global row order is the store's, and COMB with CI pruning and
// without pruning return the same ranked views on the embedded and the
// shard backend: utilities and distributions equal bit for bit, and as
// many views pruned.
func TestShardAfterIngestMatchesEmbedded(t *testing.T) {
	db := sqldb.NewDB()
	tab, err := db.CreateTable("sales", sqldb.MustSchema(
		sqldb.Column{Name: "region", Type: sqldb.TypeString},
		sqldb.Column{Name: "segment", Type: sqldb.TypeString},
		sqldb.Column{Name: "qty", Type: sqldb.TypeInt},
		sqldb.Column{Name: "price", Type: sqldb.TypeFloat},
	), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	var initial [][]sqldb.Value
	for i := 0; i < 400; i++ {
		row := make([]sqldb.Value, tab.Schema().NumColumns())
		for c, cell := range salesCells(i) {
			if row[c], err = dataset.ParseField(cell, tab.Schema().Column(c).Type); err != nil {
				t.Fatal(err)
			}
		}
		initial = append(initial, row)
	}
	if err := tab.Append(initial); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.EnableSharding(4); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	from := 400
	for _, n := range []int{1, 370, 5, 1200, 640, 3} {
		var batch [][]string
		for i := from; i < from+n; i++ {
			batch = append(batch, salesCells(i))
		}
		if code := postJSON(t, srv.URL+"/api/ingest", ingestRequest{Table: "sales", Rows: batch}, nil); code != 200 {
			t.Fatalf("ingest of rows [%d, %d) = %d", from, from+n, code)
		}
		from += n
	}

	for _, pruning := range []string{"ci", "none"} {
		var res [2]RecommendResponse
		for i, be := range []string{"", ShardBackendName} {
			if code := postJSON(t, srv.URL+"/api/recommend", map[string]any{
				"table": "sales", "target_where": "segment = 'online'", "k": 2,
				"strategy": "comb", "pruning": pruning, "backend": be,
				"aggregates": []string{"COUNT", "SUM", "AVG", "MIN", "MAX"},
			}, &res[i]); code != 200 {
				t.Fatalf("%s recommend on backend %q = %d", pruning, be, code)
			}
		}
		want, got := res[0], res[1]
		if pruning == "ci" && want.PrunedViews == 0 {
			t.Fatal("CI pruning pruned no view: the oracle would not see an order change")
		}
		if got.PrunedViews != want.PrunedViews || len(got.Recommendations) != len(want.Recommendations) {
			t.Fatalf("%s: shard backend pruned %d views and ranked %d, embedded %d and %d",
				pruning, got.PrunedViews, len(got.Recommendations), want.PrunedViews, len(want.Recommendations))
		}
		bits := func(v RecommendedView) string {
			out := fmt.Sprintf("%d %s %s %s %x %t %q", v.Rank, v.Dimension, v.Measure, v.Aggregate, math.Float64bits(v.Utility), v.Partial, v.Groups)
			for _, f := range append(slices.Clone(v.Target), v.Reference...) {
				out += fmt.Sprintf(" %x", math.Float64bits(f))
			}
			return out
		}
		for i := range want.Recommendations {
			if g, w := bits(got.Recommendations[i]), bits(want.Recommendations[i]); g != w {
				t.Errorf("%s: view %d on the shard backend\n %s\nwant\n %s", pruning, i, g, w)
			}
		}
	}
}
