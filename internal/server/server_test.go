package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seedb/internal/backend/netbe/wire"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// newTestServer loads a small census into a fresh server.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := sqldb.NewDB()
	spec := dataset.Census().WithRows(4000)
	if _, err := dataset.Build(db, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	return srv
}

// postJSON posts v and decodes the response into out, returning status.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	var out map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &out); code != 200 || out["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, out)
	}
	cacheStats, ok := out["cache"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cache counters: %v", out)
	}
	for _, field := range []string{"hits", "misses", "evictions", "budget_bytes"} {
		if _, ok := cacheStats[field]; !ok {
			t.Errorf("healthz cache stats missing %q: %v", field, cacheStats)
		}
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out []map[string]any
	if code := getJSON(t, srv.URL+"/api/datasets", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out) != 10 {
		t.Errorf("datasets = %d, want 10", len(out))
	}
}

func TestTablesEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out []tableInfo
	if code := getJSON(t, srv.URL+"/api/tables", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out) != 1 || out[0].Name != "census" || out[0].Rows != 4000 {
		t.Errorf("tables = %+v", out)
	}
	if len(out[0].Columns) != 14 {
		t.Errorf("columns = %v", out[0].Columns)
	}
}

func TestLoadDatasetEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out map[string]any
	code := postJSON(t, srv.URL+"/api/datasets/load",
		loadRequest{Name: "housing", Layout: "row", Rows: 100}, &out)
	if code != 200 {
		t.Fatalf("status %d: %v", code, out)
	}
	// Duplicate load conflicts.
	code = postJSON(t, srv.URL+"/api/datasets/load", loadRequest{Name: "housing"}, nil)
	if code != http.StatusConflict {
		t.Errorf("duplicate load status = %d, want 409", code)
	}
	// Unknown dataset.
	code = postJSON(t, srv.URL+"/api/datasets/load", loadRequest{Name: "nope"}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown dataset status = %d, want 404", code)
	}
	// Bad layout.
	code = postJSON(t, srv.URL+"/api/datasets/load", loadRequest{Name: "movies", Layout: "diagonal"}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad layout status = %d, want 400", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out queryResponse
	code := postJSON(t, srv.URL+"/api/query",
		wire.QueryRequest{SQL: "SELECT sex, COUNT(*) FROM census GROUP BY sex ORDER BY sex"}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Count != 2 || out.Rows[0][0] != "Female" {
		t.Errorf("query result = %+v", out)
	}
	// SQL errors surface as 400 with a JSON error.
	var e errorResponse
	code = postJSON(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELECT nosuch FROM census"}, &e)
	if code != http.StatusBadRequest || e.Error == "" {
		t.Errorf("bad query = %d %v", code, e)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out RecommendResponse
	code := postJSON(t, srv.URL+"/api/recommend", RecommendRequest{
		Table:       "census",
		TargetWhere: "marital = 'Unmarried'",
		Reference:   "complement",
		K:           3,
		Strategy:    "comb",
		Pruning:     "ci",
	}, &out)
	if code != 200 {
		t.Fatalf("status %d: %+v", code, out)
	}
	if len(out.Recommendations) != 3 {
		t.Fatalf("got %d recommendations", len(out.Recommendations))
	}
	r0 := out.Recommendations[0]
	if r0.Rank != 1 || r0.Utility <= 0 || len(r0.Groups) == 0 {
		t.Errorf("rec 0 = %+v", r0)
	}
	if len(r0.Target) != len(r0.Groups) || len(r0.Reference) != len(r0.Groups) {
		t.Error("distribution lengths mismatch")
	}
	// The target distribution is what a client renders: a probability
	// vector over the groups.
	var tsum float64
	for _, p := range r0.Target {
		tsum += p
	}
	if math.Abs(tsum-1) > 1e-9 {
		t.Errorf("rec 0 target sums to %v over groups %q", tsum, r0.Groups)
	}
	if out.Views != 40 || out.QueriesExecuted == 0 || out.RowsScanned == 0 {
		t.Errorf("metrics = %+v", out)
	}
}

func TestRecommendEndpointOptions(t *testing.T) {
	srv := newTestServer(t)
	// Custom distance, explicit views, sharing strategy, MAB.
	var out RecommendResponse
	code := postJSON(t, srv.URL+"/api/recommend", RecommendRequest{
		Table:       "census",
		TargetWhere: "marital = 'Unmarried'",
		K:           2,
		Strategy:    "sharing",
		Distance:    "JS",
		Dimensions:  []string{"sex", "race"},
		Measures:    []string{"capital_gain"},
		Aggregates:  []string{"avg", "sum"},
	}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Views != 4 { // 2 dims × 1 measure × 2 aggs
		t.Errorf("views = %d, want 4", out.Views)
	}
}

func TestRecommendEndpointErrors(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name string
		req  RecommendRequest
		want int
	}{
		{"missing target", RecommendRequest{Table: "census"}, 400},
		{"bad table", RecommendRequest{Table: "zzz", TargetWhere: "a = 1"}, 400},
		{"bad strategy", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", Strategy: "warp"}, 400},
		{"bad pruning", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", Pruning: "guess"}, 400},
		{"bad distance", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", Distance: "COSINE"}, 400},
		{"bad reference", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", Reference: "sideways"}, 400},
		{"bad aggregate", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", Aggregates: []string{"median"}}, 400},
	}
	for _, c := range cases {
		var e errorResponse
		if code := postJSON(t, srv.URL+"/api/recommend", c.req, &e); code != c.want {
			t.Errorf("%s: status %d, want %d (%v)", c.name, code, c.want, e)
		}
	}
}

func TestMalformedJSONBodies(t *testing.T) {
	srv := newTestServer(t)
	for _, path := range []string{"/api/query", "/api/recommend", "/api/datasets/load"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s malformed body: %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	srv := newTestServer(t)
	// Every endpoint rejects wrong HTTP methods with 405: mutating
	// endpoints must not be reachable via GET, and read endpoints must
	// not accept bodies via POST/DELETE.
	cases := []struct {
		method, path string
	}{
		{http.MethodPost, "/healthz"},
		{http.MethodGet, "/api/datasets/load"},
		{http.MethodPut, "/api/datasets/load"},
		{http.MethodPost, "/api/datasets"},
		{http.MethodPost, "/api/tables"},
		{http.MethodGet, "/api/query"},
		{http.MethodDelete, "/api/query"},
		{http.MethodGet, "/api/recommend"},
		{http.MethodPut, "/api/recommend"},
		{http.MethodPost, "/api/cache"},
		{http.MethodGet, "/api/cache/clear"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

func TestCacheEndpointsAndWarmRecommend(t *testing.T) {
	srv := newTestServer(t)
	req := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            3,
	}

	var cold RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &cold); code != 200 {
		t.Fatalf("cold recommend status %d", code)
	}
	if cold.ServedFromCache || cold.QueriesExecuted == 0 {
		t.Fatalf("cold response: %+v", cold)
	}

	var warm RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &warm); code != 200 {
		t.Fatalf("warm recommend status %d", code)
	}
	if !warm.ServedFromCache || warm.QueriesExecuted != 0 {
		t.Fatalf("warm response not served from cache: %+v", warm)
	}
	if len(warm.Recommendations) != len(cold.Recommendations) {
		t.Fatalf("warm returned %d recs, cold %d", len(warm.Recommendations), len(cold.Recommendations))
	}

	// The stats endpoint reflects the traffic.
	var stats map[string]any
	if code := getJSON(t, srv.URL+"/api/cache", &stats); code != 200 {
		t.Fatalf("cache stats status %d", code)
	}
	if hits, _ := stats["hits"].(float64); hits < 1 {
		t.Errorf("cache stats report no hits: %v", stats)
	}
	if entries, _ := stats["entries"].(float64); entries < 1 {
		t.Errorf("cache stats report no entries: %v", stats)
	}

	// Clearing drops the entries; the next identical request recomputes.
	if code := postJSON(t, srv.URL+"/api/cache/clear", map[string]any{}, nil); code != 200 {
		t.Fatalf("cache clear status %d", code)
	}
	var recold RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &recold); code != 200 {
		t.Fatalf("post-clear recommend status %d", code)
	}
	if recold.ServedFromCache {
		t.Fatal("request after clear still served from cache")
	}

	// Opting out bypasses the cache even when warm.
	reqNoCache := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            3,
		"cache":        false,
	}
	var bypass RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", reqNoCache, &bypass); code != 200 {
		t.Fatalf("no-cache recommend status %d", code)
	}
	if bypass.ServedFromCache || bypass.QueriesExecuted == 0 {
		t.Fatalf("cache=false response: %+v", bypass)
	}
}

func TestEndToEndWorkflow(t *testing.T) {
	// Load → inspect → query → recommend, the full frontend workflow.
	db := sqldb.NewDB()
	srv := httptest.NewServer(New(db))
	defer srv.Close()

	if code := postJSON(t, srv.URL+"/api/datasets/load",
		loadRequest{Name: "bank", Rows: 2000}, nil); code != 200 {
		t.Fatalf("load: %d", code)
	}
	var tables []tableInfo
	getJSON(t, srv.URL+"/api/tables", &tables)
	if len(tables) != 1 || tables[0].Rows != 2000 {
		t.Fatalf("tables = %+v", tables)
	}
	var q queryResponse
	postJSON(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELECT COUNT(*) FROM bank"}, &q)
	if q.Rows[0][0] != "2000" {
		t.Fatalf("count = %v", q.Rows)
	}
	var rec RecommendResponse
	code := postJSON(t, srv.URL+"/api/recommend", RecommendRequest{
		Table:       "bank",
		TargetWhere: "housing = 'yes'",
		Reference:   "complement",
		K:           2,
	}, &rec)
	if code != 200 || len(rec.Recommendations) != 2 {
		t.Fatalf("recommend = %d %+v", code, rec)
	}
	if r := rec.Recommendations[0]; len(r.Groups) == 0 || len(r.Target) != len(r.Groups) {
		t.Fatalf("top recommendation has %d groups, %d target values", len(r.Groups), len(r.Target))
	}
}

// TestExecutorStats asserts per-request executor counters and their
// process-wide accumulation on /healthz: a cold recommend over a column
// store runs its grouped queries on the vectorized fast path whatever
// scan_parallelism says, and one over a row store uses the interpreter.
func TestExecutorStats(t *testing.T) {
	srv := newTestServer(t)
	noCache := false

	var vec RecommendResponse
	req := RecommendRequest{
		Table: "census", TargetWhere: "marital = 'Unmarried'", K: 3,
		Strategy: "sharing", Cache: &noCache, ScanParallelism: 3,
	}
	if code := postJSON(t, srv.URL+"/api/recommend", req, &vec); code != 200 {
		t.Fatalf("status %d", code)
	}
	if vec.Vectorized == 0 || vec.Fallback != 0 {
		t.Errorf("scan_parallelism=3: vectorized=%d fallback=%d, want all vectorized",
			vec.Vectorized, vec.Fallback)
	}
	if vec.ScanWorkers < 2 || vec.ScanWorkers > 3 {
		t.Errorf("scan_workers = %d, want 2-3", vec.ScanWorkers)
	}
	if vec.SelectionKernel == 0 {
		t.Errorf("vectorized run bound no selection kernels: %+v", vec)
	}
	if len(vec.FallbackReasons) != 0 {
		t.Errorf("all-vectorized run reported fallback reasons: %v", vec.FallbackReasons)
	}

	var serial RecommendResponse
	req.ScanParallelism = 1
	if code := postJSON(t, srv.URL+"/api/recommend", req, &serial); code != 200 {
		t.Fatalf("status %d", code)
	}
	if serial.Vectorized == 0 || serial.Fallback != 0 || serial.ScanWorkers != 1 || serial.SelectionKernel == 0 {
		t.Errorf("scan_parallelism=1: vectorized=%d fallback=%d workers=%d kernels=%d, want one vectorized worker",
			serial.Vectorized, serial.Fallback, serial.ScanWorkers, serial.SelectionKernel)
	}

	if code := postJSON(t, srv.URL+"/api/datasets/load", loadRequest{Name: "housing", Layout: "row"}, nil); code != 200 {
		t.Fatalf("load status %d", code)
	}
	var row RecommendResponse
	rowReq := RecommendRequest{
		Table: "housing", TargetWhere: "near_river = 'yes'", K: 3,
		Strategy: "sharing", Cache: &noCache, ScanParallelism: 3,
	}
	if code := postJSON(t, srv.URL+"/api/recommend", rowReq, &row); code != 200 {
		t.Fatalf("status %d", code)
	}
	if row.Vectorized != 0 || row.Fallback == 0 || row.ScanWorkers != 1 {
		t.Errorf("row store: vectorized=%d fallback=%d workers=%d, want interpreter only",
			row.Vectorized, row.Fallback, row.ScanWorkers)
	}
	if row.FallbackReasons["row-store table"] != row.Fallback {
		t.Errorf("row store reasons = %v, want all under 'row-store table'", row.FallbackReasons)
	}

	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	exec, ok := health["executor"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no executor counters: %v", health)
	}
	if got, want := exec["vectorized_queries"].(float64), vec.Vectorized+serial.Vectorized; int(got) != want {
		t.Errorf("healthz vectorized_queries = %v, want %d", got, want)
	}
	if got := exec["fallback_queries"].(float64); int(got) != row.Fallback {
		t.Errorf("healthz fallback_queries = %v, want %d", got, row.Fallback)
	}
	if got := exec["max_scan_workers"].(float64); int(got) != vec.ScanWorkers {
		t.Errorf("healthz max_scan_workers = %v, want %d", got, vec.ScanWorkers)
	}
	if got, want := exec["selection_kernels"].(float64), vec.SelectionKernel+serial.SelectionKernel; int(got) != want {
		t.Errorf("healthz selection_kernels = %v, want %d", got, want)
	}
	reasons, ok := exec["fallback_reasons"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no fallback_reasons: %v", exec)
	}
	if got := reasons["row-store table"].(float64); int(got) != row.Fallback {
		t.Errorf("healthz fallback_reasons[row-store table] = %v, want %d", got, row.Fallback)
	}
}
