package server

import (
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"seedb/internal/sqldb"
)

// goldenFamilies is every "# HELP" / "# TYPE" line of GET /metrics, in
// exposition order, captured from the server as it stood when each
// family was a hand-written PromWriter call. The table in metrics.go
// must reproduce it exactly: names, types and help strings are what
// dashboards and alert rules are written against.
const goldenFamilies = `# HELP seedb_requests_total Recommendation requests served.
# TYPE seedb_requests_total counter
# HELP seedb_queries_executed_total View queries executed across all requests.
# TYPE seedb_queries_executed_total counter
# HELP seedb_vectorized_queries_total Queries served by the vectorized fast path.
# TYPE seedb_vectorized_queries_total counter
# HELP seedb_fallback_queries_total Queries served by the row-at-a-time interpreter.
# TYPE seedb_fallback_queries_total counter
# HELP seedb_fallback_queries_by_reason_total Interpreter fallbacks by cause.
# TYPE seedb_fallback_queries_by_reason_total counter
# HELP seedb_selection_kernels_total Vectorized predicate selection kernel dispatches.
# TYPE seedb_selection_kernels_total counter
# HELP seedb_residual_predicates_total Predicates evaluated row-at-a-time after kernel selection.
# TYPE seedb_residual_predicates_total counter
# HELP seedb_rows_scanned_total Base-table rows scanned by view queries.
# TYPE seedb_rows_scanned_total counter
# HELP seedb_strategy_degraded_requests_total Requests whose strategy was rewritten by capability degradation.
# TYPE seedb_strategy_degraded_requests_total counter
# HELP seedb_shard_queries_total Queries fanned out by the shard router.
# TYPE seedb_shard_queries_total counter
# HELP seedb_shard_fanout_total Child executions issued by the shard router.
# TYPE seedb_shard_fanout_total counter
# HELP seedb_shard_straggler_seconds_max Slowest single shard child execution observed.
# TYPE seedb_shard_straggler_seconds_max gauge
# HELP seedb_net_retries_total Transparent retries performed by network child backends.
# TYPE seedb_net_retries_total counter
# HELP seedb_scan_workers_max Widest per-query scan worker pool observed.
# TYPE seedb_scan_workers_max gauge
# HELP seedb_panics_total Handler panics recovered by the middleware.
# TYPE seedb_panics_total counter
# HELP seedb_degraded_requests_total Requests answered from partial shard coverage under allow_partial.
# TYPE seedb_degraded_requests_total counter
# HELP seedb_stale_serves_total Requests replayed from the result cache during an outage.
# TYPE seedb_stale_serves_total counter
# HELP seedb_shed_requests_total Requests rejected by admission control (shed after queueing plus queue-full refusals) by traffic class.
# TYPE seedb_shed_requests_total counter
# HELP seedb_breaker_state Per-child circuit breaker state (0=closed, 1=open, 2=half_open).
# TYPE seedb_breaker_state gauge
# HELP seedb_breaker_transitions_total Circuit breaker state transitions by edge, summed across children.
# TYPE seedb_breaker_transitions_total counter
# HELP seedb_traces_sampled_total Completed traces captured to the trace store (explicit trace requests plus head-sampled ones).
# TYPE seedb_traces_sampled_total counter
# HELP seedb_trace_dropped_total Completed traces evicted from the trace store under its count/byte caps.
# TYPE seedb_trace_dropped_total counter
# HELP seedb_trace_store_entries Traces currently retained in the trace store.
# TYPE seedb_trace_store_entries gauge
# HELP seedb_trace_store_bytes Serialized bytes currently retained in the trace store.
# TYPE seedb_trace_store_bytes gauge
# HELP seedb_cache_hits_total Result-cache hits.
# TYPE seedb_cache_hits_total counter
# HELP seedb_cache_misses_total Result-cache misses.
# TYPE seedb_cache_misses_total counter
# HELP seedb_cache_shared_total Lookups collapsed onto an in-flight identical computation.
# TYPE seedb_cache_shared_total counter
# HELP seedb_cache_evictions_total Entries evicted under LRU byte pressure.
# TYPE seedb_cache_evictions_total counter
# HELP seedb_cache_rejected_total Entries refused by the admission policy.
# TYPE seedb_cache_rejected_total counter
# HELP seedb_cache_entries Entries currently cached.
# TYPE seedb_cache_entries gauge
# HELP seedb_cache_bytes Bytes currently cached.
# TYPE seedb_cache_bytes gauge
# HELP seedb_cache_budget_bytes Configured cache byte budget.
# TYPE seedb_cache_budget_bytes gauge
# HELP seedb_request_duration_seconds End-to-end recommendation request latency.
# TYPE seedb_request_duration_seconds histogram
# HELP seedb_query_duration_seconds Per-view-query backend execution latency.
# TYPE seedb_query_duration_seconds histogram
# HELP seedb_shard_partial_duration_seconds Per-shard child execution latency under fan-out.
# TYPE seedb_shard_partial_duration_seconds histogram
`

// goldenExecutorKeys is the key set of the /healthz "executor" block
// from the same capture (benchmarks/harness/check.go and the load
// driver read executor.queries_executed).
const goldenExecutorKeys = "fallback_queries,fallback_reasons,max_scan_workers,net_retries,queries_executed,requests,residual_predicates,selection_kernels,shard_fanout,shard_queries,shard_straggler_max_ms,shards_degraded,strategy_degraded_requests,vectorized_queries"

func TestMetricFamiliesMatchGolden(t *testing.T) {
	s := New(sqldb.NewDB())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var got strings.Builder
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			got.WriteString(line + "\n")
		}
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(goldenFamilies, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("/metrics header line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("/metrics has %d header lines, want %d", len(gl)-1, len(wl)-1)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Executor map[string]any `json:"executor"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(health.Executor))
	for k := range health.Executor {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != goldenExecutorKeys {
		t.Errorf("/healthz executor keys:\n got %s\nwant %s", got, goldenExecutorKeys)
	}
	// A fresh server's block is all zeros, rendered as JSON integers.
	if want := `"executor":{"fallback_queries":0,"fallback_reasons":{},"max_scan_workers":0,`; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/healthz executor block does not start %s:\n%s", want, rec.Body.String())
	}
}

// TestMetricTableWellFormed checks the table's own invariants: one
// value source per row, a kind on every exported family, a label on
// every vector, no name or healthz key twice.
func TestMetricTableWellFormed(t *testing.T) {
	names, keys := map[string]bool{}, map[string]bool{}
	for i, f := range metricFamilies {
		sources := 0
		for _, set := range []bool{f.value != nil, f.vec != nil, f.hist != nil} {
			if set {
				sources++
			}
		}
		if sources != 1 {
			t.Errorf("row %d (%s%s): %d value sources, want exactly 1", i, f.name, f.healthz, sources)
		}
		if f.name == "" && f.healthz == "" {
			t.Errorf("row %d feeds neither /metrics nor /healthz", i)
		}
		if f.name != "" {
			if names[f.name] {
				t.Errorf("family %s declared twice", f.name)
			}
			names[f.name] = true
			if f.kind == "" || f.help == "" {
				t.Errorf("family %s lacks a kind or help", f.name)
			}
			if (f.hist != nil) != (f.kind == "histogram") {
				t.Errorf("family %s: kind %q does not match its value source", f.name, f.kind)
			}
		}
		if (f.vec != nil) != (f.label != "") {
			t.Errorf("row %d (%s): a vector needs a label, a scalar must not have one", i, f.name)
		}
		if f.healthz != "" {
			if keys[f.healthz] {
				t.Errorf("healthz key %s declared twice", f.healthz)
			}
			keys[f.healthz] = true
			if f.hist != nil {
				t.Errorf("healthz key %s: histograms are not reported on /healthz", f.healthz)
			}
		}
	}
}
