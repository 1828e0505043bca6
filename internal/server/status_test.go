package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// newStatusServer builds a server with a loaded dataset, a tight
// request timeout, and a fault-injectable secondary backend.
func newStatusServer(t *testing.T) (*httptest.Server, *Server, *faultbe.Fault) {
	t.Helper()
	db := sqldb.NewDB()
	spec, err := dataset.ByName("census")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Build(db, spec.WithRows(300), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.Timeout = 250 * time.Millisecond
	fault := faultbe.Wrap(backend.NewEmbedded(db))
	if err := s.RegisterBackend("fault", fault); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, s, fault
}

// postStatus POSTs v and returns the status code plus decoded error (if
// the response was an error payload).
func postStatus(t *testing.T, url string, v any) (int, string) {
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
	var e errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestQueryErrorClassification drives the /api/query status mapping:
// parse failures 400, missing tables on the introspection endpoints
// 404, store outages 502, timeouts 504. Remote retry policies key off
// exactly these codes.
func TestQueryErrorClassification(t *testing.T) {
	srv, _, fault := newStatusServer(t)

	code, msg := postStatus(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELEKT broken"})
	if code != http.StatusBadRequest || msg == "" {
		t.Errorf("parse failure = %d %q, want 400", code, msg)
	}

	fault.FailNextExecs(1, fmt.Errorf("child down: %w", backend.ErrUnavailable))
	code, _ = postStatus(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELECT COUNT(*) FROM census", Backend: "fault"})
	if code != http.StatusBadGateway {
		t.Errorf("unavailable store = %d, want 502", code)
	}

	// A backend slower than Server.Timeout: the deadline the handler now
	// installs (the /api/recommend one) must fire and map to 504.
	fault.SetExecDelay(10 * time.Second)
	start := time.Now()
	code, _ = postStatus(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELECT COUNT(*) FROM census", Backend: "fault"})
	if code != http.StatusGatewayTimeout {
		t.Errorf("timed-out query = %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed-out query took %v: Server.Timeout not applied", elapsed)
	}
	fault.SetExecDelay(0)

	resp, err := http.Get(srv.URL + "/api/backend/info?table=nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing table info = %d, want 404", resp.StatusCode)
	}
}

// TestRecommendTimeoutClassification: the recommendation path now
// shares the classifier, so an engine run hitting the server deadline
// reports 504 instead of blaming the client with a 400.
func TestRecommendTimeoutClassification(t *testing.T) {
	srv, _, fault := newStatusServer(t)
	fault.SetExecDelay(10 * time.Second)
	code, _ := postStatus(t, srv.URL+"/api/recommend", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", Backend: "fault"})
	if code != http.StatusGatewayTimeout {
		t.Errorf("timed-out recommend = %d, want 504", code)
	}
}

// TestWireEndpoints exercises the three /api/backend/* endpoints'
// happy paths and parameter validation.
func TestWireEndpoints(t *testing.T) {
	srv, _, _ := newStatusServer(t)
	getJSONInto := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	var hs wire.Handshake
	if code := getJSONInto("/api/backend/caps", &hs); code != 200 {
		t.Fatalf("caps status %d", code)
	}
	if hs.Proto != wire.ProtoVersion || hs.Backend != DefaultBackendName || !hs.SupportsPhasedExecution {
		t.Errorf("handshake = %+v", hs)
	}

	var ti backend.TableInfo
	if code := getJSONInto("/api/backend/info?table=census", &ti); code != 200 {
		t.Fatalf("info status %d", code)
	}
	if ti.Name != "census" || ti.Rows != 300 || len(ti.Columns) == 0 {
		t.Errorf("info = %+v", ti)
	}

	var ts backend.TableStats
	if code := getJSONInto("/api/backend/stats?table=census", &ts); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if ts.Rows != 300 {
		t.Errorf("stats = %+v", ts)
	}

	// The version token rides on the info payload; protocol 2 has no
	// version endpoint.
	if ti.Version == "" {
		t.Errorf("info carries no version token: %+v", ti)
	}
	resp, err := http.Get(srv.URL + "/api/backend/version?table=census")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retired version endpoint = %d, want 404", resp.StatusCode)
	}

	// Parameter validation: missing table 400, unknown backend 400.
	var e errorResponse
	if code := getJSONInto("/api/backend/info", &e); code != http.StatusBadRequest {
		t.Errorf("missing table param = %d, want 400", code)
	}
	if code := getJSONInto("/api/backend/caps?backend=nosuch", &e); code != http.StatusBadRequest {
		t.Errorf("unknown backend = %d, want 400", code)
	}
}

// TestQueryFoldsIntoExecutorTotals: /api/query executions must land in
// the same executor totals and query-latency histogram as engine
// traffic — the histogram's count equals queries_executed with both
// kinds of traffic mixed, and requests still counts recommendations
// only.
func TestQueryFoldsIntoExecutorTotals(t *testing.T) {
	srv, s, _ := newStatusServer(t)

	for i := 0; i < 3; i++ {
		code, msg := postStatus(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELECT sex, COUNT(*) FROM census GROUP BY sex"})
		if code != 200 {
			t.Fatalf("query %d failed: %d %s", i, code, msg)
		}
	}
	code, msg := postStatus(t, srv.URL+"/api/recommend", RecommendRequest{Table: "census", TargetWhere: "sex = 'Female'", K: 2})
	if code != 200 {
		t.Fatalf("recommend failed: %d %s", code, msg)
	}

	requests, _, totals := s.exec.snapshot()
	if requests != 1 {
		t.Errorf("requests = %d, want 1 (raw queries are not recommendations)", requests)
	}
	if totals.QueriesExecuted < 4 {
		t.Errorf("QueriesExecuted = %d, want >= 4 (3 raw + recommend traffic)", totals.QueriesExecuted)
	}
	if totals.QueriesExecuted != totals.VectorizedQueries+totals.FallbackQueries {
		t.Errorf("executed %d != vectorized %d + fallback %d", totals.QueriesExecuted, totals.VectorizedQueries, totals.FallbackQueries)
	}
	if hist := s.tel.QueryLatency.Count(); hist != uint64(totals.QueriesExecuted) {
		t.Errorf("query histogram count = %d, queries_executed = %d — the two paths disagree", hist, totals.QueriesExecuted)
	}

	// A failed query must not advance the executed counters (no stats
	// were produced) nor the histogram.
	before := s.tel.QueryLatency.Count()
	if code, _ := postStatus(t, srv.URL+"/api/query", wire.QueryRequest{SQL: "SELEKT"}); code != 400 {
		t.Fatalf("bad query = %d", code)
	}
	if after := s.tel.QueryLatency.Count(); after != before {
		t.Errorf("failed query observed latency (%d -> %d)", before, after)
	}
}

// TestQueryWireMode: {"wire":true} returns typed values and stats.
func TestQueryWireMode(t *testing.T) {
	srv, _, _ := newStatusServer(t)
	body, _ := json.Marshal(wire.QueryRequest{SQL: "SELECT COUNT(*) FROM census", Wire: true})
	resp, err := http.Post(srv.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr wire.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0].K != "i" || qr.Rows[0][0].I != 300 {
		t.Errorf("wire response = %+v", qr)
	}
	if qr.Stats.RowsScanned == 0 {
		t.Errorf("wire stats = %+v, want RowsScanned > 0", qr.Stats)
	}
}

// TestHealthzCarriesRobustnessCounters: the new counter families are
// present (zero on an idle server) so dashboards can rely on the keys.
func TestHealthzCarriesRobustnessCounters(t *testing.T) {
	srv, _, _ := newStatusServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Executor map[string]any `json:"executor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hedged_partials", "hedge_wins", "net_retries"} {
		if _, ok := h.Executor[key]; !ok {
			t.Errorf("healthz executor payload missing %q", key)
		}
	}
}
