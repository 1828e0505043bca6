package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// newTelemetryServer loads a census big enough that execution dominates
// request handling, and returns both halves so tests can reach server
// methods (EnablePprof, SetSlowQueryLog) directly.
func newTelemetryServer(t *testing.T, rows int) (*Server, *httptest.Server) {
	t.Helper()
	db := sqldb.NewDB()
	spec := dataset.Census().WithRows(rows)
	if _, err := dataset.Build(db, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// assertChildrenNested checks a span's structure, not its proportions:
// the direct children sit in start order inside the parent's interval.
// (What share of the parent they cover is decided by scheduling and
// fixed per-span overhead, so no assertion may depend on it.)
func assertChildrenNested(t *testing.T, n *telemetry.SpanNode) {
	t.Helper()
	const epsMS = 1e-3
	prev := n.StartMS
	for _, c := range n.Children {
		if c.StartMS < prev-epsMS {
			t.Errorf("%s child %q starts at %.4fms, before its predecessor (%.4fms):\n%s",
				n.Name, c.Name, c.StartMS, prev, n.Render())
		}
		if c.StartMS+c.DurMS > n.StartMS+n.DurMS+epsMS {
			t.Errorf("%s child %q ends at %.4fms, after its parent (%.4fms):\n%s",
				n.Name, c.Name, c.StartMS+c.DurMS, n.StartMS+n.DurMS, n.Render())
		}
		prev = c.StartMS
	}
}

// TestTracedRecommendSpansCoverRequest checks that a traced
// /api/recommend response decomposes the request: the recommend span
// has children, they are ordered and nested inside it, and every stage
// of the pipeline appears — the trace explains where the time went.
func TestTracedRecommendSpansCoverRequest(t *testing.T) {
	_, srv := newTelemetryServer(t, 20000)
	noCache := false
	var resp RecommendResponse
	req := RecommendRequest{Table: "census", TargetWhere: "sex = 'F'", Trace: true, Cache: &noCache}
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but response has no trace")
	}
	if resp.Trace.Name != "request" {
		t.Errorf("trace root = %q, want request", resp.Trace.Name)
	}
	rec := resp.Trace.Find("recommend")
	if rec == nil {
		t.Fatalf("no recommend span:\n%s", resp.Trace.Render())
	}
	if len(rec.Children) == 0 {
		t.Fatalf("recommend span has no children:\n%s", resp.Trace.Render())
	}
	assertChildrenNested(t, rec)
	for _, name := range []string{"view_enum", "execute", "query", "score"} {
		if resp.Trace.Find(name) == nil {
			t.Errorf("trace missing %q span:\n%s", name, resp.Trace.Render())
		}
	}
}

// TestUntracedRecommendHasNoTrace checks the opt-in: without
// {"trace": true} the response carries no span tree.
func TestUntracedRecommendHasNoTrace(t *testing.T) {
	_, srv := newTelemetryServer(t, 2000)
	var resp RecommendResponse
	req := RecommendRequest{Table: "census", TargetWhere: "sex = 'F'"}
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if resp.Trace != nil {
		t.Errorf("trace present without opt-in:\n%s", resp.Trace.Render())
	}
}

// TestMetricsEndpoint scrapes /metrics after serving a recommendation
// and runs the payload through the self-contained exposition-format
// validator, then spot-checks the advertised families.
func TestMetricsEndpoint(t *testing.T) {
	_, srv := newTelemetryServer(t, 2000)
	var resp RecommendResponse
	req := RecommendRequest{Table: "census", TargetWhere: "sex = 'F'"}
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}

	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheusText(body); err != nil {
		t.Fatalf("invalid exposition format: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"seedb_requests_total 1",
		"seedb_queries_executed_total",
		"seedb_vectorized_queries_total",
		"seedb_fallback_queries_total",
		"seedb_rows_scanned_total",
		"seedb_cache_hits_total",
		"seedb_cache_budget_bytes",
		"seedb_request_duration_seconds_bucket",
		"seedb_request_duration_seconds_count 1",
		"seedb_query_duration_seconds_sum",
		"seedb_shard_partial_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The query histogram must count exactly the executed queries — the
	// guard that keeps latency percentiles honest.
	want := "seedb_query_duration_seconds_count " + jsonNumber(resp.QueriesExecuted)
	if !strings.Contains(text, want) {
		t.Errorf("/metrics missing %q (histogram count != queries executed)", want)
	}
}

// jsonNumber formats n the way the exposition writer does.
func jsonNumber(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestPprofGating checks that the profiling endpoints are mounted only
// after EnablePprof.
func TestPprofGating(t *testing.T) {
	_, srv := newTelemetryServer(t, 500)
	res, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Errorf("/debug/pprof/cmdline without EnablePprof = %d, want 404", res.StatusCode)
	}

	s2, srv2 := newTelemetryServer(t, 500)
	s2.EnablePprof()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		res, err := http.Get(srv2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("%s with EnablePprof = %d, want 200", path, res.StatusCode)
		}
	}
}

// TestHealthzConsistentUnderLoad scrapes /healthz concurrently with
// recommendations and asserts the executor invariants hold in every
// snapshot: queries_executed == vectorized + fallback, and the fallback
// reasons sum to the fallback count. Under the old per-field atomics a
// scrape could land mid-record and tear these identities; run with
// -race this also pins the locking.
func TestHealthzConsistentUnderLoad(t *testing.T) {
	_, srv := newTelemetryServer(t, 1000)
	noCache := false
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var resp RecommendResponse
				req := RecommendRequest{Table: "census", TargetWhere: "sex = 'F'", Cache: &noCache}
				postJSON(t, srv.URL+"/api/recommend", req, &resp)
			}
		}()
	}

	for i := 0; i < 40; i++ {
		var out struct {
			Executor struct {
				Queries    int            `json:"queries_executed"`
				Vectorized int            `json:"vectorized_queries"`
				Fallback   int            `json:"fallback_queries"`
				Reasons    map[string]int `json:"fallback_reasons"`
			} `json:"executor"`
		}
		if code := getJSON(t, srv.URL+"/healthz", &out); code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		e := out.Executor
		if e.Queries != e.Vectorized+e.Fallback {
			t.Fatalf("torn snapshot: queries_executed %d != vectorized %d + fallback %d",
				e.Queries, e.Vectorized, e.Fallback)
		}
		sum := 0
		for _, n := range e.Reasons {
			sum += n
		}
		if sum != e.Fallback {
			t.Fatalf("torn snapshot: fallback_reasons sum %d != fallback_queries %d", sum, e.Fallback)
		}
	}
	close(done)
	wg.Wait()
}

// syncBuffer is a writer safe for concurrent slow-log appends.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog wires a slow log with a 1ns threshold (everything is
// slow) and checks both entry kinds arrive as parseable JSON lines with
// the documented fields.
func TestSlowQueryLog(t *testing.T) {
	s, srv := newTelemetryServer(t, 2000)
	var buf syncBuffer
	s.SetSlowQueryLog(&buf, time.Nanosecond)

	noCache := false
	var resp RecommendResponse
	req := RecommendRequest{Table: "census", TargetWhere: "sex = 'F'", Cache: &noCache}
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}

	kinds := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e telemetry.SlowEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("slow-log line is not JSON: %v\n%s", err, sc.Text())
		}
		kinds[e.Kind]++
		if e.Time == "" {
			t.Errorf("slow-log entry has no timestamp: %s", sc.Text())
		}
		if e.ThresholdMS <= 0 || e.ElapsedMS < 0 {
			t.Errorf("slow-log entry has bad durations: %s", sc.Text())
		}
		switch e.Kind {
		case "query":
			if e.SQL == "" || e.Table == "" {
				t.Errorf("slow query entry missing sql/table: %s", sc.Text())
			}
		case "request":
			if e.Table != "census" || e.Queries != resp.QueriesExecuted {
				t.Errorf("slow request entry = %s, want table census, queries %d", sc.Text(), resp.QueriesExecuted)
			}
		default:
			t.Errorf("unknown slow-log kind %q", e.Kind)
		}
	}
	if kinds["query"] == 0 || kinds["request"] != 1 {
		t.Errorf("slow-log kinds = %v, want every query and exactly one request", kinds)
	}
}
