package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/backend/netbe"
	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/resilience"
	"seedb/internal/sqldb"
)

// panicBackend explodes on Exec: the fixture for the panic-containment
// middleware.
type panicBackend struct{}

func (panicBackend) Name() string                                        { return "boom" }
func (panicBackend) Capabilities() backend.Capabilities                  { return backend.Capabilities{} }
func (panicBackend) TableVersion(context.Context, string) (string, bool) { return "v0", true }
func (panicBackend) TableInfo(context.Context, string) (backend.TableInfo, error) {
	return backend.TableInfo{}, nil
}
func (panicBackend) TableStats(context.Context, string) (*backend.TableStats, error) {
	return &backend.TableStats{}, nil
}
func (panicBackend) Exec(context.Context, string, backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	panic("injected handler panic")
}

// lockedBuffer is a race-safe io.Writer for capturing the slow-query log.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newChaosServer loads census behind a 3-child shard router with every
// child wrapped in a faultbe, so tests can fail any subset of the ring.
func newChaosServer(t *testing.T, opts shardbe.Options) (*Server, *httptest.Server, []*faultbe.Fault) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(900), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	faults := make([]*faultbe.Fault, 3)
	err := s.EnableShardingOpts(3, opts, func(i int, be backend.Backend) backend.Backend {
		faults[i] = faultbe.Wrap(be)
		return faults[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv, faults
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRecommendDegradedVsStrict pins the HTTP degradation contract with
// one of three shard children down: allow_partial requests get 200 plus
// the degraded markers, strict requests get 502 — never a silent
// partial answer, never a 500.
func TestRecommendDegradedVsStrict(t *testing.T) {
	_, srv, faults := newChaosServer(t, shardbe.Options{
		Breakers: &resilience.BreakerOptions{},
	})
	faults[0].SetDown(backend.ErrUnavailable)

	req := map[string]any{
		"table":         "census",
		"target_where":  "marital = 'Unmarried'",
		"k":             3,
		"strategy":      "sharing",
		"backend":       ShardBackendName,
		"allow_partial": true,
	}
	var rec RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &rec); code != 200 {
		t.Fatalf("allow_partial recommend = %d, want 200", code)
	}
	if !rec.Degraded {
		t.Error("response not marked degraded")
	}
	if len(rec.DegradedShards) != 1 || rec.DegradedShards[0] != 0 {
		t.Errorf("degraded_shards = %v, want [0]", rec.DegradedShards)
	}
	if len(rec.Recommendations) == 0 {
		t.Error("degraded response carried no recommendations")
	}

	// Degraded results are never admitted to the result cache: the same
	// request repeated is recomputed, not served from cache.
	var again RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &again); code != 200 {
		t.Fatalf("repeat allow_partial recommend = %d", code)
	}
	if again.ServedFromCache {
		t.Error("degraded result was served from cache on repeat")
	}
	if !again.Degraded {
		t.Error("repeat response not marked degraded")
	}

	// Strict: the same request without allow_partial is an outage.
	delete(req, "allow_partial")
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, srv.URL+"/api/recommend", req, &e); code != http.StatusBadGateway {
		t.Fatalf("strict recommend over down child = %d (%s), want 502", code, e.Error)
	}

	// The degradation shows up on /metrics and /healthz.
	code, metrics := getBody(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, family := range []string{
		"seedb_degraded_requests_total",
		"seedb_breaker_state",
		"seedb_breaker_transitions_total",
		"seedb_shed_requests_total",
		"seedb_panics_total",
		"seedb_stale_serves_total",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	var health struct {
		Resilience struct {
			DegradedRequests float64         `json:"degraded_requests"`
			Breakers         []breakerHealth `json:"breakers"`
		} `json:"resilience"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if health.Resilience.DegradedRequests < 1 {
		t.Errorf("healthz degraded_requests = %v, want >= 1", health.Resilience.DegradedRequests)
	}
	if len(health.Resilience.Breakers) != 3 {
		t.Errorf("healthz breakers = %d entries, want 3", len(health.Resilience.Breakers))
	}
}

// TestWireAllowPartial: the degraded-results opt-in crosses the netbe
// wire. A client whose context carries it sends allow_partial, and the
// server's /api/query turns the field back into the context marker its
// shard router reads; a client without it gets the strict outage.
func TestWireAllowPartial(t *testing.T) {
	_, srv, faults := newChaosServer(t, shardbe.Options{})
	faults[0].SetDown(backend.ErrUnavailable)
	ctx := context.Background()
	c, err := netbe.New(ctx, srv.URL, netbe.Options{Backend: ShardBackendName, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT sex, COUNT(*) FROM census GROUP BY sex"
	_, stats, err := c.Exec(backend.WithAllowPartial(ctx), sql, backend.ExecOptions{})
	if err != nil {
		t.Fatalf("allow-partial exec over the wire: %v", err)
	}
	if stats.ShardsDegraded != 1 || len(stats.DegradedShards) != 1 || stats.DegradedShards[0] != 0 {
		t.Errorf("degraded stats = %d %v, want 1 [0]", stats.ShardsDegraded, stats.DegradedShards)
	}
	if _, _, err := c.Exec(ctx, sql, backend.ExecOptions{}); !errors.Is(err, backend.ErrUnavailable) {
		t.Errorf("strict exec over the wire = %v, want ErrUnavailable", err)
	}
}

// TestStaleServeOnOutage pins the stale-on-outage contract: a warm
// request shape keeps answering (marked "stale": true) when the whole
// ring goes down, while requests that did not opt in still get 502.
func TestStaleServeOnOutage(t *testing.T) {
	s, srv, faults := newChaosServer(t, shardbe.Options{})
	req := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            3,
		"strategy":     "sharing",
		"backend":      ShardBackendName,
		"serve_stale":  true,
	}
	var fresh RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &fresh); code != 200 {
		t.Fatalf("warm recommend = %d", code)
	}
	if fresh.Stale {
		t.Fatal("healthy response marked stale")
	}

	// Ingest bumps the table version so the outage request cannot be
	// answered from the regular (version-keyed) result cache.
	tab, _ := s.db.Table("census")
	row := make([]string, tab.Schema().NumColumns())
	if code := postJSON(t, srv.URL+"/api/ingest", ingestRequest{
		Table: "census", Rows: [][]string{row},
	}, nil); code != 200 {
		t.Fatalf("ingest = %d", code)
	}
	for _, f := range faults {
		f.SetDown(backend.ErrUnavailable)
	}

	var stale RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &stale); code != 200 {
		t.Fatalf("outage recommend with serve_stale = %d, want 200", code)
	}
	if !stale.Stale {
		t.Error("outage response not marked stale")
	}
	if len(stale.Recommendations) != len(fresh.Recommendations) {
		t.Errorf("stale recommendations = %d, fresh had %d",
			len(stale.Recommendations), len(fresh.Recommendations))
	}

	// Without the opt-in the outage surfaces as 502.
	delete(req, "serve_stale")
	if code := postJSON(t, srv.URL+"/api/recommend", req, nil); code != http.StatusBadGateway {
		t.Fatalf("outage recommend without serve_stale = %d, want 502", code)
	}

	code, metrics := getBody(t, srv.URL+"/metrics")
	if code != 200 || !strings.Contains(metrics, "seedb_stale_serves_total 1") {
		t.Errorf("/metrics should count 1 stale serve (code %d)", code)
	}

	// The fallbacks live in the result cache, so an operator's clear
	// drops them too: the opted-in shape now sees the outage.
	req["serve_stale"] = true
	if code := postJSON(t, srv.URL+"/api/cache/clear", nil, nil); code != 200 {
		t.Fatalf("cache clear = %d", code)
	}
	if code := postJSON(t, srv.URL+"/api/recommend", req, nil); code != http.StatusBadGateway {
		t.Fatalf("outage recommend after cache clear = %d, want 502", code)
	}
}

// TestPanicContainment: a handler panic becomes a 500 with the panic
// counter bumped and a stack in the slow-query log — and the server
// keeps serving afterwards.
func TestPanicContainment(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(200), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.RegisterBackend("boom", panicBackend{}); err != nil {
		t.Fatal(err)
	}
	slow := &lockedBuffer{}
	s.SetSlowQueryLog(slow, time.Hour) // only panics should appear
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	var e struct {
		Error string `json:"error"`
	}
	code := postJSON(t, srv.URL+"/api/query", map[string]any{
		"sql": "SELECT COUNT(*) FROM census", "backend": "boom",
	}, &e)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", code)
	}
	if !strings.Contains(e.Error, "internal error") {
		t.Errorf("error body = %q, want internal error marker", e.Error)
	}

	logged := slow.String()
	if !strings.Contains(logged, `"panic"`) || !strings.Contains(logged, "/api/query") {
		t.Errorf("slow log missing panic entry: %q", logged)
	}
	if !strings.Contains(logged, "injected handler panic") {
		t.Errorf("slow log missing panic stack: %q", logged)
	}
	code, metrics := getBody(t, srv.URL+"/metrics")
	if code != 200 || !strings.Contains(metrics, "seedb_panics_total 1") {
		t.Errorf("/metrics should count the panic (code %d)", code)
	}

	// The process survived: normal traffic still works.
	var q queryResponse
	if code := postJSON(t, srv.URL+"/api/query", map[string]any{
		"sql": "SELECT COUNT(*) FROM census",
	}, &q); code != 200 {
		t.Fatalf("query after panic = %d, want 200", code)
	}
}

// TestAdmissionShed: with the single query slot held, an over-limit
// request waits its queue budget and is shed with 503 + Retry-After,
// while /healthz stays reachable. Releasing the slot restores service.
func TestAdmissionShed(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(200), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.SetAdmission(1, 30*time.Millisecond)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	release, err := s.queryGate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/query", "application/json",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM census"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}

	// Health and metrics are deliberately ungated.
	var health struct {
		Resilience struct {
			QueryGate *resilience.GateStats `json:"query_gate"`
		} `json:"resilience"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("/healthz while saturated = %d, want 200", code)
	}
	if health.Resilience.QueryGate == nil || health.Resilience.QueryGate.Shed != 1 {
		t.Errorf("healthz query_gate = %+v, want shed = 1", health.Resilience.QueryGate)
	}

	release()
	if code := postJSON(t, srv.URL+"/api/query", map[string]any{
		"sql": "SELECT COUNT(*) FROM census",
	}, nil); code != 200 {
		t.Fatalf("query after release = %d, want 200", code)
	}
}

// TestAdmissionQueueFull: when the wait queue itself is at capacity the
// next request is refused immediately with 429, and the queued requests
// all complete once the slot frees up.
func TestAdmissionQueueFull(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(200), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.SetAdmission(1, 10*time.Second) // waiters park until the slot frees
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	release, err := s.queryGate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the wait queue (cap = 4 x maxInflight = 4).
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			codes <- postJSONCode(srv.URL+"/api/query", `{"sql":"SELECT COUNT(*) FROM census"}`)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queryGate.Stats().Waiting < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters queued", s.queryGate.Stats().Waiting)
		}
		time.Sleep(time.Millisecond)
	}
	if got := postJSONCode(srv.URL+"/api/query", `{"sql":"SELECT COUNT(*) FROM census"}`); got != http.StatusTooManyRequests {
		t.Fatalf("over-queue request = %d, want 429", got)
	}

	release()
	for i := 0; i < 4; i++ {
		if code := <-codes; code != 200 {
			t.Errorf("queued request %d = %d, want 200 after slot freed", i, code)
		}
	}
	if st := s.queryGate.Stats(); st.Refused != 1 {
		t.Errorf("gate refused = %d, want 1", st.Refused)
	}
}

// postJSONCode posts a raw JSON body and returns only the status code
// (0 on transport error); helper for concurrent admission tests where
// t.Fatal is off-limits outside the main goroutine.
func postJSONCode(url, body string) int {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
