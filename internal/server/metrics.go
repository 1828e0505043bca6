// The one table of metric families. GET /metrics is a loop over it, the
// /healthz "executor" block is built from its rows that carry a healthz
// key, and internal/docscheck compares the table in
// docs/OBSERVABILITY.md with it — a family is declared here and nowhere
// else.
package server

import (
	"fmt"
	"net/http"
	"sync"

	"seedb/internal/backend"
	"seedb/internal/cache"
	"seedb/internal/core"
	"seedb/internal/telemetry"
)

// executorStats accumulates, across every recommendation served by this
// process, how the sqldb executor ran its queries. Surfaced on /healthz
// and /metrics next to the cache counters so dashboards can see whether
// the parallel vectorized fast path — and its predicate selection
// kernels — is actually carrying the load, and why any queries fell
// back.
//
// All counters fold under one mutex through core.Metrics.Merge and are
// snapshotted under the same mutex, so a scrape concurrent with
// recommendations can never observe a torn aggregate: the
// core.ExecTotals invariants (QueriesExecuted == VectorizedQueries +
// FallbackQueries, per-reason counts summing to FallbackQueries) hold
// in every snapshot, not just at rest.
type executorStats struct {
	mu sync.Mutex
	// requests counts recommendations served; degraded counts the ones
	// whose strategy was rewritten by capability degradation
	// (core.Metrics.Merge only ORs the StrategyDegraded flag, so the
	// count lives here).
	requests int64
	degraded int64
	totals   core.Metrics
}

// record folds one recommendation request's metrics in.
func (e *executorStats) record(m core.Metrics) {
	e.mu.Lock()
	e.requests++
	if m.StrategyDegraded {
		e.degraded++
	}
	e.totals.Merge(m)
	e.mu.Unlock()
}

// recordQuery folds one raw /api/query execution in without advancing
// the request counter: requests counts recommendations served, while
// the executor totals — and the invariant that the query latency
// histogram's count equals queries_executed — cover manual chart
// traffic too.
func (e *executorStats) recordQuery(stats backend.ExecStats) {
	e.mu.Lock()
	e.totals.Add(stats)
	e.mu.Unlock()
}

// snapshot returns a consistent copy of the aggregate (reasons map
// deep-copied) with the request counters.
func (e *executorStats) snapshot() (requests, degraded int64, totals core.Metrics) {
	e.mu.Lock()
	defer e.mu.Unlock()
	totals = e.totals
	if e.totals.FallbackReasons != nil {
		totals.FallbackReasons = make(map[string]int, len(e.totals.FallbackReasons))
		for r, n := range e.totals.FallbackReasons {
			totals.FallbackReasons[r] = n
		}
	}
	return e.requests, e.degraded, totals
}

// scrape is everything a metric family's value can be read from, taken
// once per /metrics or /healthz call: the executor totals under their
// single lock, then the other subsystems' own snapshots.
type scrape struct {
	requests, degraded int64
	m                  core.Metrics
	cache              cache.Stats
	traces             telemetry.TraceStoreStats
	breakers           []breakerHealth
	srv                *Server
}

func (s *Server) scrape() *scrape {
	snap := &scrape{srv: s, cache: s.cache.Stats(), traces: s.traces.Stats(), breakers: s.breakerSnapshot()}
	snap.requests, snap.degraded, snap.m = s.exec.snapshot()
	return snap
}

// metricFamily declares one family. Exactly one of value, vec and hist
// is set; vec families carry their single label's name.
type metricFamily struct {
	// name is the /metrics family name ("" = the row feeds /healthz only).
	name string
	kind string // "counter", "gauge" or "histogram"
	help string
	// healthz is the row's key in the /healthz "executor" block ("" =
	// not reported there).
	healthz string
	label   string
	value   func(*scrape) float64
	vec     func(*scrape) map[string]float64
	hist    func(*scrape) telemetry.HistogramSnapshot
}

// metricFamilies is the table, in /metrics exposition order.
var metricFamilies = []metricFamily{
	{name: "seedb_requests_total", kind: "counter", help: "Recommendation requests served.", healthz: "requests", value: func(s *scrape) float64 { return float64(s.requests) }},
	{name: "seedb_queries_executed_total", kind: "counter", help: "View queries executed across all requests.", healthz: "queries_executed", value: func(s *scrape) float64 { return float64(s.m.QueriesExecuted) }},
	{name: "seedb_vectorized_queries_total", kind: "counter", help: "Queries served by the vectorized fast path.", healthz: "vectorized_queries", value: func(s *scrape) float64 { return float64(s.m.VectorizedQueries) }},
	{name: "seedb_fallback_queries_total", kind: "counter", help: "Queries served by the row-at-a-time interpreter.", healthz: "fallback_queries", value: func(s *scrape) float64 { return float64(s.m.FallbackQueries) }},
	{name: "seedb_fallback_queries_by_reason_total", kind: "counter", help: "Interpreter fallbacks by cause.", healthz: "fallback_reasons", label: "reason",
		vec: func(s *scrape) map[string]float64 {
			reasons := make(map[string]float64, len(s.m.FallbackReasons))
			for r, n := range s.m.FallbackReasons {
				reasons[r] = float64(n)
			}
			return reasons
		}},
	{name: "seedb_selection_kernels_total", kind: "counter", help: "Vectorized predicate selection kernel dispatches.", healthz: "selection_kernels", value: func(s *scrape) float64 { return float64(s.m.SelectionKernels) }},
	{name: "seedb_residual_predicates_total", kind: "counter", help: "Predicates evaluated row-at-a-time after kernel selection.", healthz: "residual_predicates", value: func(s *scrape) float64 { return float64(s.m.ResidualPredicates) }},
	{name: "seedb_rows_scanned_total", kind: "counter", help: "Base-table rows scanned by view queries.", value: func(s *scrape) float64 { return float64(s.m.RowsScanned) }},
	{name: "seedb_strategy_degraded_requests_total", kind: "counter", help: "Requests whose strategy was rewritten by capability degradation.", healthz: "strategy_degraded_requests", value: func(s *scrape) float64 { return float64(s.degraded) }},
	{name: "seedb_shard_queries_total", kind: "counter", help: "Queries fanned out by the shard router.", healthz: "shard_queries", value: func(s *scrape) float64 { return float64(s.m.ShardQueries) }},
	{name: "seedb_shard_fanout_total", kind: "counter", help: "Child executions issued by the shard router.", healthz: "shard_fanout", value: func(s *scrape) float64 { return float64(s.m.ShardFanout) }},
	{name: "seedb_shard_straggler_seconds_max", kind: "gauge", help: "Slowest single shard child execution observed.", value: func(s *scrape) float64 { return s.m.ShardStragglerMax.Seconds() }},
	// /healthz reports the straggler in milliseconds and a degraded-shard
	// count /metrics has no family for.
	{healthz: "shard_straggler_max_ms", value: func(s *scrape) float64 { return float64(s.m.ShardStragglerMax) / 1e6 }},
	{healthz: "shards_degraded", value: func(s *scrape) float64 { return float64(s.m.ShardsDegraded) }},
	{name: "seedb_net_retries_total", kind: "counter", help: "Transparent retries performed by network child backends.", healthz: "net_retries", value: func(s *scrape) float64 { return float64(s.m.NetRetries) }},
	{name: "seedb_scan_workers_max", kind: "gauge", help: "Widest per-query scan worker pool observed.", healthz: "max_scan_workers", value: func(s *scrape) float64 { return float64(s.m.ScanWorkers) }},

	// Graceful-degradation families (docs/RESILIENCE.md).
	{name: "seedb_panics_total", kind: "counter", help: "Handler panics recovered by the middleware.", value: func(s *scrape) float64 { return float64(s.srv.panics.Load()) }},
	{name: "seedb_degraded_requests_total", kind: "counter", help: "Requests answered from partial shard coverage under allow_partial.", value: func(s *scrape) float64 { return float64(s.srv.degradedRequests.Load()) }},
	{name: "seedb_stale_serves_total", kind: "counter", help: "Requests replayed from the result cache during an outage.", value: func(s *scrape) float64 { return float64(s.srv.staleServes.Load()) }},
	{name: "seedb_shed_requests_total", kind: "counter", help: "Requests rejected by admission control (shed after queueing plus queue-full refusals) by traffic class.", label: "class",
		vec: func(s *scrape) map[string]float64 {
			shed := map[string]float64{}
			if g := s.srv.queryGate; g != nil {
				gs := g.Stats()
				shed["query"] = float64(gs.Shed + gs.Refused)
			}
			if g := s.srv.ingestGate; g != nil {
				gs := g.Stats()
				shed["ingest"] = float64(gs.Shed + gs.Refused)
			}
			return shed
		}},
	{name: "seedb_breaker_state", kind: "gauge", help: "Per-child circuit breaker state (0=closed, 1=open, 2=half_open).", label: "child",
		vec: func(s *scrape) map[string]float64 {
			states := map[string]float64{}
			for _, bh := range s.breakers {
				states[fmt.Sprintf("%s/%d", bh.Backend, bh.Child)] = float64(bh.state)
			}
			return states
		}},
	{name: "seedb_breaker_transitions_total", kind: "counter", help: "Circuit breaker state transitions by edge, summed across children.", label: "transition",
		vec: func(s *scrape) map[string]float64 {
			transitions := map[string]float64{}
			for _, bh := range s.breakers {
				transitions["closed_to_open"] += float64(bh.Transitions.ClosedToOpen)
				transitions["open_to_half_open"] += float64(bh.Transitions.OpenToHalfOpen)
				transitions["half_open_to_closed"] += float64(bh.Transitions.HalfOpenToClosed)
				transitions["half_open_to_open"] += float64(bh.Transitions.HalfOpenToOpen)
			}
			return transitions
		}},

	// Trace retention families (docs/OBSERVABILITY.md, "Trace store").
	{name: "seedb_traces_sampled_total", kind: "counter", help: "Completed traces captured to the trace store (explicit trace requests plus head-sampled ones).", value: func(s *scrape) float64 { return float64(s.traces.Sampled) }},
	{name: "seedb_trace_dropped_total", kind: "counter", help: "Completed traces evicted from the trace store under its count/byte caps.", value: func(s *scrape) float64 { return float64(s.traces.Dropped) }},
	{name: "seedb_trace_store_entries", kind: "gauge", help: "Traces currently retained in the trace store.", value: func(s *scrape) float64 { return float64(s.traces.Entries) }},
	{name: "seedb_trace_store_bytes", kind: "gauge", help: "Serialized bytes currently retained in the trace store.", value: func(s *scrape) float64 { return float64(s.traces.Bytes) }},

	{name: "seedb_cache_hits_total", kind: "counter", help: "Result-cache hits.", value: func(s *scrape) float64 { return float64(s.cache.Hits) }},
	{name: "seedb_cache_misses_total", kind: "counter", help: "Result-cache misses.", value: func(s *scrape) float64 { return float64(s.cache.Misses) }},
	{name: "seedb_cache_shared_total", kind: "counter", help: "Lookups collapsed onto an in-flight identical computation.", value: func(s *scrape) float64 { return float64(s.cache.Shared) }},
	{name: "seedb_cache_evictions_total", kind: "counter", help: "Entries evicted under LRU byte pressure.", value: func(s *scrape) float64 { return float64(s.cache.Evictions) }},
	{name: "seedb_cache_rejected_total", kind: "counter", help: "Entries refused by the admission policy.", value: func(s *scrape) float64 { return float64(s.cache.Rejected) }},
	{name: "seedb_cache_entries", kind: "gauge", help: "Entries currently cached.", value: func(s *scrape) float64 { return float64(s.cache.Entries) }},
	{name: "seedb_cache_bytes", kind: "gauge", help: "Bytes currently cached.", value: func(s *scrape) float64 { return float64(s.cache.Bytes) }},
	{name: "seedb_cache_budget_bytes", kind: "gauge", help: "Configured cache byte budget.", value: func(s *scrape) float64 { return float64(s.cache.BudgetBytes) }},

	{name: "seedb_request_duration_seconds", kind: "histogram", help: "End-to-end recommendation request latency.", hist: func(s *scrape) telemetry.HistogramSnapshot { return s.srv.tel.RequestLatency.Snapshot() }},
	{name: "seedb_query_duration_seconds", kind: "histogram", help: "Per-view-query backend execution latency.", hist: func(s *scrape) telemetry.HistogramSnapshot { return s.srv.tel.QueryLatency.Snapshot() }},
	{name: "seedb_shard_partial_duration_seconds", kind: "histogram", help: "Per-shard child execution latency under fan-out.", hist: func(s *scrape) telemetry.HistogramSnapshot { return s.srv.tel.ShardLatency.Snapshot() }},
}

// handleMetrics implements GET /metrics: the Prometheus text exposition
// (format 0.0.4) of every family in the table. Executor counters come
// from the same single-lock snapshot as /healthz, so scrapes
// mid-request still satisfy the executor invariants.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := telemetry.NewPromWriter(w)
	for _, f := range metricFamilies {
		switch {
		case f.name == "":
		case f.hist != nil:
			pw.Histogram(f.name, f.help, f.hist(snap))
		case f.vec != nil:
			pw.Vec(f.kind, f.name, f.help, f.label, f.vec(snap))
		default:
			pw.Scalar(f.kind, f.name, f.help, f.value(snap))
		}
	}
}

// executorHealth renders the rows that carry a healthz key as the
// /healthz "executor" block.
func executorHealth(snap *scrape) map[string]any {
	out := make(map[string]any)
	for _, f := range metricFamilies {
		switch {
		case f.healthz == "":
		case f.vec != nil:
			out[f.healthz] = f.vec(snap)
		default:
			out[f.healthz] = f.value(snap)
		}
	}
	return out
}
