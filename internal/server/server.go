// Package server implements SeeDB's middleware HTTP API — the
// client/server architecture of Figure 3 in the paper. The SeeDB client
// (the paper's web frontend; here any HTTP client) issues the analyst's
// query and receives ranked visualization recommendations; the manual
// chart-building half of the mixed-initiative frontend maps to a raw
// query endpoint.
//
// Endpoints (all JSON):
//
//	GET  /healthz               liveness probe + cache/executor counters + backends
//	GET  /metrics               Prometheus text-format counters and histograms
//	GET  /api/datasets          built-in dataset generators
//	POST /api/datasets/load     {"name","layout","rows"} → load a builtin
//	POST /api/datasets/synth    {"spec",...} → generate a synthetic table in-server
//	POST /api/ingest            {"table","rows"} → append rows under live traffic
//	GET  /api/tables            tables with schemas and row counts
//	POST /api/query             {"sql"} → columns + rows ({"wire":true} → typed)
//	POST /api/recommend         RecommendRequest → RecommendResponse
//	GET  /api/traces            recent completed trace summaries
//	GET  /api/traces/{id}       one retained trace's full span tree
//	GET  /api/cache             result-cache statistics
//	POST /api/cache/clear       drop every cached entry
//	GET  /api/backend/caps      netbe handshake: wire protocol + capabilities
//	GET  /api/backend/info      ?table= → schema description (404 = no table)
//	GET  /api/backend/stats     ?table= → per-column statistics
//	GET  /api/backend/version   ?table= → dataset version token
//
// The four /api/backend/* endpoints plus the typed /api/query mode form
// the netbe wire protocol (internal/backend/netbe/wire): they make a
// remote seedb-server usable as a backend.Backend from another process.
// Error statuses are classified (see statusForError) so remote clients
// can retry outages (502/504) and never retry their own mistakes
// (400/404).
//
// EnablePprof additionally mounts net/http/pprof under /debug/pprof/
// (off by default: profiling endpoints expose heap contents, so they
// are opt-in via the -pprof flag on cmd/seedb-server).
//
// Requests with a wrong HTTP method receive 405 Method Not Allowed.
//
// The server owns one process-wide result cache (internal/cache) shared
// by every recommendation request, so repeated and concurrent identical
// requests from different clients are answered from memory instead of
// re-aggregating the data. It can front several backends at once
// (RegisterBackend); recommendation requests select one by name with
// {"backend": "..."} and degrade per its capabilities — see
// docs/BACKENDS.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/backend/shardbe"
	"seedb/internal/cache"
	"seedb/internal/chart"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/resilience"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// DefaultBackendName is the name the embedded store registers under.
const DefaultBackendName = "sqldb"

// ShardBackendName is the name EnableSharding registers the shard
// router under.
const ShardBackendName = "shard"

// Server is the SeeDB middleware server. It can front several backends
// at once — the embedded store is always registered under
// DefaultBackendName, and RegisterBackend adds external stores — with
// every recommendation request free to pick one by name. All backends
// share the one process-wide result cache (version tokens are
// backend-namespaced, so entries never leak across stores).
type Server struct {
	db    *sqldb.DB
	cache *cache.Cache
	mux   *http.ServeMux
	exec  executorStats
	// tel is the process-wide telemetry collector: latency histograms
	// (exported on /metrics) and the optional slow-query log. Every
	// registered engine and the shard router share it.
	tel *telemetry.Collector
	// traces retains recently completed traces for GET /api/traces;
	// traceSample is the head-sampling probability for requests that did
	// not ask for a trace themselves (SetTraceSampling; read without
	// synchronization on the hot path, so set it before serving).
	traces      *telemetry.TraceStore
	traceSample float64
	// Timeout bounds each recommendation request (default 2 minutes).
	Timeout time.Duration

	mu       sync.RWMutex
	backends map[string]*registeredBackend
	// shardDBs holds the shard children when EnableSharding registered a
	// router; dataset loads then re-scatter into them.
	shardDBs []*sqldb.DB

	// dataMu is the server-wide reader/writer lock over table data: the
	// embedded store's writes are not synchronized with reads, so every
	// registered backend is wrapped (guardedBackend) to hold the read
	// side around execution and introspection, while the mutating
	// endpoints (/api/ingest and the dataset loaders) hold the write
	// side. Query-query concurrency is untouched; a write drains
	// in-flight queries, applies, and releases.
	dataMu sync.RWMutex

	// Admission gates (SetAdmission; nil = admit everything). Queries
	// and mutating ingest/load traffic hold separate budgets so neither
	// class can starve the other. Install before serving traffic — the
	// fields are read without synchronization on the hot path.
	queryGate  *resilience.Gate
	ingestGate *resilience.Gate

	// Resilience counters for /metrics and /healthz: recovered handler
	// panics, requests answered from partial shard coverage, and
	// requests replayed from the result cache during an outage.
	panics           atomic.Int64
	degradedRequests atomic.Int64
	staleServes      atomic.Int64
}

// registeredBackend is one named backend with its engine. raw is the
// backend as registered, before the data-lock wrapper — the handle the
// server probes for optional interfaces like breakerReporter.
type registeredBackend struct {
	name   string
	be     backend.Backend
	raw    backend.Backend
	engine *core.Engine
}

// breakerReporter is implemented by backends (the shard router with
// Options.Breakers set) that expose per-child circuit-breaker state.
type breakerReporter interface {
	BreakerStats() []resilience.BreakerStats
}

// executorStats accumulates, across every recommendation served by this
// process, how the sqldb executor ran its queries. Surfaced on /healthz
// and /metrics next to the cache counters so dashboards can see whether
// the parallel vectorized fast path — and its predicate selection
// kernels — is actually carrying the load, and why any queries fell
// back.
//
// All counters fold under one mutex through core.Metrics.Merge and are
// snapshotted under the same mutex, so a scrape concurrent with
// recommendations can never observe a torn aggregate: the RecordExec
// invariants (QueriesExecuted == VectorizedQueries + FallbackQueries,
// per-reason counts summing to FallbackQueries) hold in every snapshot,
// not just at rest. The previous per-field atomics could interleave with
// a scrape mid-record and break exactly those identities.
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

// recordQuery folds one raw /api/query execution's metrics in without
// advancing the request counter: requests counts recommendations
// served, while the executor totals — and the invariant that the query
// latency histogram's count equals queries_executed — cover manual
// chart traffic too.
func (e *executorStats) recordQuery(m core.Metrics) {
	e.mu.Lock()
	e.totals.Merge(m)
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

// healthSnapshot renders the counters for the /healthz JSON payload.
func (e *executorStats) healthSnapshot() map[string]any {
	requests, degraded, m := e.snapshot()
	reasons := make(map[string]int, len(m.FallbackReasons))
	for r, n := range m.FallbackReasons {
		reasons[r] = n
	}
	return map[string]any{
		"requests":                   requests,
		"queries_executed":           m.QueriesExecuted,
		"vectorized_queries":         m.VectorizedQueries,
		"fallback_queries":           m.FallbackQueries,
		"fallback_reasons":           reasons,
		"max_scan_workers":           m.ScanWorkers,
		"selection_kernels":          m.SelectionKernels,
		"residual_predicates":        m.ResidualPredicates,
		"shard_queries":              m.ShardQueries,
		"shard_fanout":               m.ShardFanout,
		"shard_straggler_max_ms":     float64(m.ShardStragglerMax) / 1e6,
		"hedged_partials":            m.HedgedPartials,
		"hedge_wins":                 m.HedgeWins,
		"net_retries":                m.NetRetries,
		"shards_degraded":            m.ShardsDegraded,
		"strategy_degraded_requests": degraded,
	}
}

// New creates a server over db with the default cache budget.
func New(db *sqldb.DB) *Server {
	return NewWithCacheBudget(db, cache.DefaultBudgetBytes)
}

// NewWithCacheBudget creates a server whose process-wide result cache
// has the given byte budget (<= 0 selects the default).
func NewWithCacheBudget(db *sqldb.DB, cacheBudgetBytes int64) *Server {
	s := &Server{
		db:       db,
		cache:    cache.New(cacheBudgetBytes),
		mux:      http.NewServeMux(),
		tel:      telemetry.NewCollector(),
		traces:   telemetry.NewTraceStore(0, 0),
		Timeout:  2 * time.Minute,
		backends: make(map[string]*registeredBackend),
	}
	if err := s.RegisterBackend(DefaultBackendName, backend.NewEmbedded(db)); err != nil {
		panic(err) // unreachable: the map is empty
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /api/datasets/load", s.handleLoadDataset)
	s.mux.HandleFunc("POST /api/datasets/synth", s.handleLoadSynth)
	s.mux.HandleFunc("POST /api/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /api/tables", s.handleTables)
	s.mux.HandleFunc("POST /api/query", s.handleQuery)
	s.mux.HandleFunc("POST /api/recommend", s.handleRecommend)
	s.mux.HandleFunc("GET /api/cache", s.handleCacheStats)
	s.mux.HandleFunc("POST /api/cache/clear", s.handleCacheClear)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /api/backend/caps", s.handleBackendCaps)
	s.mux.HandleFunc("GET /api/backend/info", s.handleBackendInfo)
	s.mux.HandleFunc("GET /api/backend/stats", s.handleBackendStats)
	s.mux.HandleFunc("GET /api/backend/version", s.handleBackendVersion)
	return s
}

// Cache returns the server's process-wide result cache.
func (s *Server) Cache() *cache.Cache { return s.cache }

// Telemetry returns the server's process-wide telemetry collector.
func (s *Server) Telemetry() *telemetry.Collector { return s.tel }

// SetSlowQueryLog routes slow-query and slow-request JSON lines to w,
// flagging anything slower than threshold (<= 0 selects the default,
// telemetry.DefaultSlowThreshold). Call before serving traffic; see
// docs/OBSERVABILITY.md for the line schema.
func (s *Server) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	s.tel.SlowLog = telemetry.NewSlowLog(w, threshold)
}

// SetTraceSampling enables probabilistic head sampling: each
// recommendation request that did not opt into tracing itself is traced
// with probability p (an explicit {"trace": true} always wins) and the
// completed tree is retained in the trace store for GET /api/traces —
// sampled requests do not carry the tree in their response, only its
// "trace_id". p <= 0 disables sampling. Call before serving traffic.
func (s *Server) SetTraceSampling(p float64) {
	s.traceSample = p
}

// TraceStore returns the server's bounded ring of completed traces.
func (s *Server) TraceStore() *telemetry.TraceStore { return s.traces }

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default — profiling endpoints expose heap and
// goroutine contents, so operators opt in explicitly (the -pprof flag
// on cmd/seedb-server).
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// RegisterBackend adds a named backend; recommendation requests select
// it with {"backend": name}. The engine it gets shares the server's
// process-wide result cache. Registering a duplicate name is an error.
// The backend is wrapped so its execution and introspection hold the
// server's data read-lock, making it safe to serve queries concurrently
// with /api/ingest writes.
func (s *Server) RegisterBackend(name string, be backend.Backend) error {
	if name == "" {
		return fmt.Errorf("server: backend name must be non-empty")
	}
	raw := be
	be = guardedBackend{inner: be, mu: &s.dataMu}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.backends[name]; dup {
		return fmt.Errorf("server: backend %q already registered", name)
	}
	eng := core.NewEngine(be)
	eng.SetCache(s.cache)
	eng.SetTelemetry(s.tel)
	s.backends[name] = &registeredBackend{name: name, be: be, raw: raw, engine: eng}
	return nil
}

// SetAdmission installs admission control: at most maxInflight query
// requests (/api/recommend, /api/query) execute concurrently, with
// over-limit requests waiting up to queueWait for a slot before being
// shed with 503 (a full wait queue refuses immediately with 429).
// Mutating traffic (/api/ingest and the dataset loaders) gets its own
// smaller budget — max(1, maxInflight/4) — so a query flood cannot
// starve writes nor vice versa. maxInflight <= 0 disables admission
// control. Call before serving traffic.
func (s *Server) SetAdmission(maxInflight int, queueWait time.Duration) {
	if maxInflight <= 0 {
		s.queryGate, s.ingestGate = nil, nil
		return
	}
	ingest := maxInflight / 4
	if ingest < 1 {
		ingest = 1
	}
	s.queryGate = resilience.NewGate(maxInflight, 4*maxInflight, queueWait)
	s.ingestGate = resilience.NewGate(ingest, 4*ingest, queueWait)
}

// gateFor classifies a request path into an admission budget (nil =
// ungated: health, metrics and introspection must stay reachable
// exactly when the server is saturated).
func (s *Server) gateFor(path string) *resilience.Gate {
	switch path {
	case "/api/recommend", "/api/query":
		return s.queryGate
	case "/api/ingest", "/api/datasets/load", "/api/datasets/synth":
		return s.ingestGate
	}
	return nil
}

// EnableSharding registers a shard router (under ShardBackendName) over
// n embedded children that mirror the server's embedded store: every
// table already loaded is scattered across the children immediately with
// the order-preserving block partitioner, and later dataset loads
// re-scatter automatically. Requests opt in per call with
// {"backend": "shard"}; see docs/ARCHITECTURE.md, "Sharded execution".
// n = 1 is a valid degenerate router (the single-shard baseline of the
// shard bench experiment).
func (s *Server) EnableSharding(n int) error {
	return s.EnableShardingOpts(n, shardbe.Options{}, nil)
}

// EnableShardingOpts is EnableSharding with explicit router options
// (circuit breakers, degraded-results mode, hedging, ...) and an
// optional per-child wrapper: wrap(i, child) replaces child i in the
// router, letting callers interpose fault injection or instrumentation
// between the router and an embedded shard. The options' Telemetry is
// always the server's collector.
func (s *Server) EnableShardingOpts(n int, opts shardbe.Options, wrap func(int, backend.Backend) backend.Backend) error {
	if n < 1 {
		return fmt.Errorf("server: sharding needs at least 1 shard, got %d", n)
	}
	dbs, bes := shardbe.EmbeddedChildren(n)
	if wrap != nil {
		for i, be := range bes {
			bes[i] = wrap(i, be)
		}
	}
	opts.Telemetry = s.tel
	router, err := shardbe.New(bes, opts)
	if err != nil {
		return err
	}
	if err := s.RegisterBackend(ShardBackendName, router); err != nil {
		return err
	}
	s.mu.Lock()
	s.shardDBs = dbs
	s.mu.Unlock()
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	for _, name := range s.db.TableNames() {
		if err := s.scatterShards(name); err != nil {
			return err
		}
	}
	return nil
}

// scatterShards mirrors one embedded table across the shard children
// (a no-op when sharding is off).
func (s *Server) scatterShards(table string) error {
	s.mu.RLock()
	dbs := s.shardDBs
	s.mu.RUnlock()
	if len(dbs) == 0 {
		return nil
	}
	t, ok := s.db.Table(table)
	if !ok {
		return nil
	}
	return shardbe.ScatterTable(s.db, table, dbs, shardbe.Blocks{Total: t.NumRows()})
}

// backendFor resolves a request's backend name ("" = the default).
func (s *Server) backendFor(name string) (*registeredBackend, error) {
	if name == "" {
		name = DefaultBackendName
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	rb, ok := s.backends[name]
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", name)
	}
	return rb, nil
}

// backendInfo is one backend's /healthz description.
type backendInfo struct {
	Name                    string `json:"name"`
	Default                 bool   `json:"default"`
	SupportsVectorized      bool   `json:"supports_vectorized"`
	SupportsPhasedExecution bool   `json:"supports_phased_execution"`
}

// backendSnapshot lists registered backends, default first then by name.
func (s *Server) backendSnapshot() []backendInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]backendInfo, 0, len(s.backends))
	for name, rb := range s.backends {
		caps := rb.be.Capabilities()
		out = append(out, backendInfo{
			Name:                    name,
			Default:                 name == DefaultBackendName,
			SupportsVectorized:      caps.SupportsVectorized,
			SupportsPhasedExecution: caps.SupportsPhasedExecution,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Default != out[b].Default {
			return out[a].Default
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// ServeHTTP implements http.Handler: admission control, then panic
// containment, then the route mux. A handler panic is converted to a
// 500 (instead of net/http's per-connection reset, which looks like an
// outage to load balancers), counted in seedb_panics_total, and logged
// with its stack to the slow-query sink.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if gate := s.gateFor(r.URL.Path); gate != nil {
		release, err := gate.Acquire(r.Context())
		if err != nil {
			s.writeAdmissionError(w, err)
			return
		}
		defer release()
	}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			if sl := s.tel.Slow(); sl != nil {
				sl.Log(telemetry.SlowEntry{
					Kind:  "panic",
					Path:  r.URL.Path,
					Stack: fmt.Sprintf("panic: %v\n%s", p, debug.Stack()),
				})
			}
			// Best-effort: if the handler already wrote headers this is a
			// no-op on the status, but the connection still closes cleanly.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// writeAdmissionError maps a gate rejection to its HTTP shape: 429 for
// a full wait queue (clients should back off harder), 503 for a timed
// shed, and the blameless 503 for a caller that gave up while queued.
// Both overload statuses carry Retry-After so well-behaved clients
// pace themselves.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	status := http.StatusServiceUnavailable
	if errors.Is(err, resilience.ErrQueueFull) {
		status = http.StatusTooManyRequests
	}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err)
}

// errorResponse is the uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// handleHealth implements GET /healthz. The payload carries the cache
// and executor counters (so load balancers and dashboards see hit rates
// and fast-path coverage without a second probe) plus the registered
// backends with their capability flags.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"cache":      s.cache.Stats(),
		"executor":   s.exec.healthSnapshot(),
		"backends":   s.backendSnapshot(),
		"resilience": s.resilienceSnapshot(),
	})
}

// breakerHealth is one circuit breaker's /healthz description.
type breakerHealth struct {
	Backend     string                 `json:"backend"`
	Child       int                    `json:"child"`
	State       string                 `json:"state"`
	Successes   int64                  `json:"successes"`
	Failures    int64                  `json:"failures"`
	Refusals    int64                  `json:"refusals"`
	Transitions resilience.Transitions `json:"transitions"`
}

// breakerSnapshot collects per-child breaker state from every backend
// that reports it, in backend-name order.
func (s *Server) breakerSnapshot() []breakerHealth {
	s.mu.RLock()
	type namedReporter struct {
		name string
		rep  breakerReporter
	}
	var reps []namedReporter
	for name, rb := range s.backends {
		if rep, ok := rb.raw.(breakerReporter); ok {
			reps = append(reps, namedReporter{name, rep})
		}
	}
	s.mu.RUnlock()
	sort.Slice(reps, func(a, b int) bool { return reps[a].name < reps[b].name })
	var out []breakerHealth
	for _, nr := range reps {
		for i, bs := range nr.rep.BreakerStats() {
			out = append(out, breakerHealth{
				Backend:     nr.name,
				Child:       i,
				State:       bs.State.String(),
				Successes:   bs.Successes,
				Failures:    bs.Failures,
				Refusals:    bs.Refusals,
				Transitions: bs.Transitions,
			})
		}
	}
	return out
}

// resilienceSnapshot renders the graceful-degradation counters for
// /healthz: admission gates, circuit breakers, and the degraded/stale
// serve counts.
func (s *Server) resilienceSnapshot() map[string]any {
	out := map[string]any{
		"panics":            s.panics.Load(),
		"degraded_requests": s.degradedRequests.Load(),
		"stale_serves":      s.staleServes.Load(),
	}
	if s.queryGate != nil {
		out["query_gate"] = s.queryGate.Stats()
	}
	if s.ingestGate != nil {
		out["ingest_gate"] = s.ingestGate.Stats()
	}
	if brs := s.breakerSnapshot(); len(brs) > 0 {
		out["breakers"] = brs
	}
	return out
}

// handleMetrics implements GET /metrics: the Prometheus text exposition
// (format 0.0.4) of every executor counter, cache counter, and latency
// histogram. Counters come from the same single-lock snapshot as
// /healthz, so scrapes mid-request still satisfy the executor
// invariants. The full name table lives in docs/OBSERVABILITY.md.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	requests, degraded, m := s.exec.snapshot()
	cs := s.cache.Stats()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := telemetry.NewPromWriter(w)

	pw.Counter("seedb_requests_total", "Recommendation requests served.", float64(requests))
	pw.Counter("seedb_queries_executed_total", "View queries executed across all requests.", float64(m.QueriesExecuted))
	pw.Counter("seedb_vectorized_queries_total", "Queries served by the vectorized fast path.", float64(m.VectorizedQueries))
	pw.Counter("seedb_fallback_queries_total", "Queries served by the row-at-a-time interpreter.", float64(m.FallbackQueries))
	reasons := make(map[string]float64, len(m.FallbackReasons))
	for r, n := range m.FallbackReasons {
		reasons[r] = float64(n)
	}
	pw.CounterVec("seedb_fallback_queries_by_reason_total", "Interpreter fallbacks by cause.", "reason", reasons)
	pw.Counter("seedb_selection_kernels_total", "Vectorized predicate selection kernel dispatches.", float64(m.SelectionKernels))
	pw.Counter("seedb_residual_predicates_total", "Predicates evaluated row-at-a-time after kernel selection.", float64(m.ResidualPredicates))
	pw.Counter("seedb_rows_scanned_total", "Base-table rows scanned by view queries.", float64(m.RowsScanned))
	pw.Counter("seedb_strategy_degraded_requests_total", "Requests whose strategy was rewritten by capability degradation.", float64(degraded))
	pw.Counter("seedb_shard_queries_total", "Queries fanned out by the shard router.", float64(m.ShardQueries))
	pw.Counter("seedb_shard_fanout_total", "Child executions issued by the shard router.", float64(m.ShardFanout))
	pw.Gauge("seedb_shard_straggler_seconds_max", "Slowest single shard child execution observed.", m.ShardStragglerMax.Seconds())
	pw.Counter("seedb_hedged_partials_total", "Speculative duplicate shard executions issued against stragglers.", float64(m.HedgedPartials))
	pw.Counter("seedb_hedge_wins_total", "Hedged duplicates that answered before their primary.", float64(m.HedgeWins))
	pw.Counter("seedb_net_retries_total", "Transparent retries performed by network child backends.", float64(m.NetRetries))
	pw.Gauge("seedb_scan_workers_max", "Widest per-query scan worker pool observed.", float64(m.ScanWorkers))

	// Graceful-degradation families (docs/RESILIENCE.md).
	pw.Counter("seedb_panics_total", "Handler panics recovered by the middleware.", float64(s.panics.Load()))
	pw.Counter("seedb_degraded_requests_total", "Requests answered from partial shard coverage under allow_partial.", float64(s.degradedRequests.Load()))
	pw.Counter("seedb_stale_serves_total", "Requests replayed from the result cache during an outage.", float64(s.staleServes.Load()))
	shed := map[string]float64{}
	if s.queryGate != nil {
		gs := s.queryGate.Stats()
		shed["query"] = float64(gs.Shed + gs.Refused)
	}
	if s.ingestGate != nil {
		gs := s.ingestGate.Stats()
		shed["ingest"] = float64(gs.Shed + gs.Refused)
	}
	pw.CounterVec("seedb_shed_requests_total", "Requests rejected by admission control (shed after queueing plus queue-full refusals) by traffic class.", "class", shed)
	states := map[string]float64{}
	transitions := map[string]float64{}
	for _, bh := range s.breakerSnapshot() {
		states[fmt.Sprintf("%s/%d", bh.Backend, bh.Child)] = float64(breakerStateCode(bh.State))
		transitions["closed_to_open"] += float64(bh.Transitions.ClosedToOpen)
		transitions["open_to_half_open"] += float64(bh.Transitions.OpenToHalfOpen)
		transitions["half_open_to_closed"] += float64(bh.Transitions.HalfOpenToClosed)
		transitions["half_open_to_open"] += float64(bh.Transitions.HalfOpenToOpen)
	}
	pw.GaugeVec("seedb_breaker_state", "Per-child circuit breaker state (0=closed, 1=open, 2=half_open).", "child", states)
	pw.CounterVec("seedb_breaker_transitions_total", "Circuit breaker state transitions by edge, summed across children.", "transition", transitions)

	// Trace retention families (docs/OBSERVABILITY.md, "Trace store").
	tss := s.traces.Stats()
	pw.Counter("seedb_traces_sampled_total", "Completed traces captured to the trace store (explicit trace requests plus head-sampled ones).", float64(tss.Sampled))
	pw.Counter("seedb_trace_dropped_total", "Completed traces evicted from the trace store under its count/byte caps.", float64(tss.Dropped))
	pw.Gauge("seedb_trace_store_entries", "Traces currently retained in the trace store.", float64(tss.Entries))
	pw.Gauge("seedb_trace_store_bytes", "Serialized bytes currently retained in the trace store.", float64(tss.Bytes))

	pw.Counter("seedb_cache_hits_total", "Result-cache hits.", float64(cs.Hits))
	pw.Counter("seedb_cache_misses_total", "Result-cache misses.", float64(cs.Misses))
	pw.Counter("seedb_cache_shared_total", "Lookups collapsed onto an in-flight identical computation.", float64(cs.Shared))
	pw.Counter("seedb_cache_evictions_total", "Entries evicted under LRU byte pressure.", float64(cs.Evictions))
	pw.Counter("seedb_cache_rejected_total", "Entries refused by the admission policy.", float64(cs.Rejected))
	pw.Gauge("seedb_cache_entries", "Entries currently cached.", float64(cs.Entries))
	pw.Gauge("seedb_cache_bytes", "Bytes currently cached.", float64(cs.Bytes))
	pw.Gauge("seedb_cache_budget_bytes", "Configured cache byte budget.", float64(cs.BudgetBytes))

	pw.Histogram("seedb_request_duration_seconds", "End-to-end recommendation request latency.", s.tel.RequestLatency.Snapshot())
	pw.Histogram("seedb_query_duration_seconds", "Per-view-query backend execution latency.", s.tel.QueryLatency.Snapshot())
	pw.Histogram("seedb_shard_partial_duration_seconds", "Per-shard child execution latency under fan-out.", s.tel.ShardLatency.Snapshot())
}

// breakerStateCode maps a breaker state name to its stable gauge code.
func breakerStateCode(state string) int {
	switch state {
	case "closed":
		return int(resilience.Closed)
	case "open":
		return int(resilience.Open)
	case "half_open":
		return int(resilience.HalfOpen)
	default:
		return -1
	}
}

// handleCacheStats implements GET /api/cache.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// handleCacheClear implements POST /api/cache/clear (an operator escape
// hatch; normal invalidation is automatic via dataset versioning).
func (s *Server) handleCacheClear(w http.ResponseWriter, _ *http.Request) {
	s.cache.Clear()
	writeJSON(w, http.StatusOK, map[string]string{"status": "cleared"})
}

// datasetInfo describes one built-in dataset.
type datasetInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	DefaultRows int    `json:"default_rows"`
	PaperRows   int    `json:"paper_rows"`
	Dimensions  int    `json:"dimensions"`
	Measures    int    `json:"measures"`
	Views       int    `json:"views"`
	TargetWhere string `json:"target_where"`
}

// handleDatasets implements GET /api/datasets.
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	var out []datasetInfo
	for _, name := range dataset.Names() {
		spec, err := dataset.ByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, datasetInfo{
			Name:        spec.Name,
			Description: spec.Description,
			DefaultRows: spec.Rows,
			PaperRows:   spec.PaperRows,
			Dimensions:  len(spec.ViewDims()),
			Measures:    len(spec.Measures),
			Views:       spec.NumViews(),
			TargetWhere: spec.TargetPredicate(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// loadRequest is the POST /api/datasets/load payload.
type loadRequest struct {
	Name   string `json:"name"`
	Layout string `json:"layout"` // "row" or "col" (default col)
	Rows   int    `json:"rows"`   // 0 = dataset default
}

// handleLoadDataset implements POST /api/datasets/load.
func (s *Server) handleLoadDataset(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := dataset.ByName(req.Name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if req.Rows > 0 {
		spec = spec.WithRows(req.Rows)
	}
	layout, err := parseLayout(req.Layout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The write lock keeps the build (and the shard re-scatter, which
	// drops and recreates child tables) invisible to in-flight queries.
	s.dataMu.Lock()
	_, buildErr := dataset.Build(s.db, spec, layout)
	if buildErr == nil {
		// Keep the shard children in sync so {"backend": "shard"}
		// requests see every loaded table.
		buildErr = s.scatterShards(spec.Name)
	}
	s.dataMu.Unlock()
	if buildErr != nil {
		writeError(w, http.StatusConflict, buildErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": spec.Name, "rows": spec.Rows})
}

// tableInfo describes one loaded table.
type tableInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Layout  string   `json:"layout"`
	Columns []string `json:"columns"`
}

// handleTables implements GET /api/tables.
func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	// Row counts race with ingest appends without the read lock.
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	out := []tableInfo{}
	for _, name := range s.db.TableNames() {
		t, ok := s.db.Table(name)
		if !ok {
			continue
		}
		info := tableInfo{Name: t.Name(), Rows: t.NumRows(), Layout: t.Layout().String()}
		for _, c := range t.Schema().Columns() {
			info.Columns = append(info.Columns, fmt.Sprintf("%s %s", c.Name, c.Type))
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// queryResponse carries a raw SQL result in the human-facing string
// form ({"wire": true} requests get wire.QueryResponse instead).
type queryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Count   int        `json:"count"`
}

// handleQuery implements POST /api/query — the manual chart-construction
// path of the mixed-initiative frontend, and (with {"wire": true}) the
// Exec leg of the netbe wire protocol. Like /api/recommend it routes
// through the selected backend, runs under the server's request
// timeout, classifies errors by status, and folds its execution stats
// into the same executor totals and query-latency histogram — so raw
// queries and remote shard partials are first-class citizens of every
// dashboard invariant (histogram count == queries_executed included).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	rb, err := s.backendFor(req.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if s.Timeout > 0 {
		// The same deadline /api/recommend runs under; previously raw
		// queries could hold a connection forever.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	// A Traceparent header means a remote caller (netbe) is tracing:
	// open a child-side trace under the caller's span, so the executor
	// spans of this process travel home in the wire response.
	var ctr *telemetry.Trace
	if tid, psid, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
		ctx, ctr = telemetry.WithRemoteTrace(ctx, "child.query", tid, psid)
	}
	start := time.Now()
	res, stats, err := rb.be.Exec(ctx, req.SQL, backend.ExecOptions{
		Lo:                 req.Lo,
		Hi:                 req.Hi,
		Workers:            req.Workers,
		NoSelectionKernels: req.NoSelectionKernels,
		AllowPartial:       req.AllowPartial,
	})
	elapsed := time.Since(start)
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	// Snapshot the child trace now, not after response encoding: the
	// child.query span then measures exactly the execution, so the
	// caller can read wire/encode overhead as the gap between its own
	// span and the grafted subtree.
	var childTrace *telemetry.SpanNode
	if ctr != nil {
		stampExecAttrs(ctr.Root(), stats)
		childTrace = ctr.Finish()
	}
	if stats.ShardsDegraded > 0 {
		s.degradedRequests.Add(1)
	}
	s.tel.ObserveQuery(elapsed)
	var m core.Metrics
	m.RecordExec(stats)
	s.exec.recordQuery(m)
	if req.Wire {
		wresp := wire.QueryResponse{
			Columns: res.Columns,
			Rows:    wire.EncodeRows(res.Rows),
			Stats:   wire.FromExecStats(stats),
		}
		wresp.Trace = childTrace
		writeJSON(w, http.StatusOK, wresp)
		return
	}
	resp := queryResponse{Columns: res.Columns, Count: len(res.Rows), Rows: [][]string{}}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		resp.Rows = append(resp.Rows, cells)
	}
	writeJSON(w, http.StatusOK, resp)
}

// stampExecAttrs threads one execution's resource counters into span
// attributes — the cost-attribution half of tracing: where the rows
// went, not just where the time went. Zero counters stay off the span.
func stampExecAttrs(sp *telemetry.Span, stats backend.ExecStats) {
	if sp == nil {
		return
	}
	sp.SetAttr("rows_scanned", fmt.Sprintf("%d", stats.RowsScanned))
	sp.SetAttr("groups", fmt.Sprintf("%d", stats.Groups))
	if stats.ShardFanout > 0 {
		sp.SetAttr("shard_fanout", fmt.Sprintf("%d", stats.ShardFanout))
	}
	if stats.NetRetries > 0 {
		sp.SetAttr("net_retries", fmt.Sprintf("%d", stats.NetRetries))
	}
}

// handleTraces implements GET /api/traces: summaries of the retained
// traces, newest first (?limit=N caps the list, default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	sums := s.traces.List(limit)
	if sums == nil {
		sums = []telemetry.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": sums})
}

// handleTraceByID implements GET /api/traces/{id}: the full stored
// span tree for one completed trace.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// RecommendRequest is the POST /api/recommend payload.
type RecommendRequest struct {
	Table          string   `json:"table"`
	TargetWhere    string   `json:"target_where"`
	Reference      string   `json:"reference"`       // "all" (default), "complement", "custom"
	ReferenceWhere string   `json:"reference_where"` // for "custom"
	K              int      `json:"k"`
	Strategy       string   `json:"strategy"` // "noopt","sharing","comb","combearly"
	Pruning        string   `json:"pruning"`  // "none","ci","mab"
	Distance       string   `json:"distance"` // "EMD" (default), ...
	Dimensions     []string `json:"dimensions"`
	Measures       []string `json:"measures"`
	Aggregates     []string `json:"aggregates"`
	// Cache opts this request out of the shared result cache when set to
	// false; omitted or true uses the cache.
	Cache *bool `json:"cache"`
	// ScanParallelism caps per-query scan workers (0 = GOMAXPROCS; 1
	// forces the serial interpreter).
	ScanParallelism int `json:"scan_parallelism"`
	// Backend selects which registered backend executes the request
	// (empty = the embedded default; see /healthz for the list).
	Backend string `json:"backend"`
	// Trace opts this request into span tracing: the response carries the
	// full span tree under "trace". Off by default — building the tree
	// allocates per span, so clients ask for it explicitly.
	Trace bool `json:"trace"`
	// SlowQueryMS overrides the server's slow-query log threshold for
	// this request, in milliseconds (0 = server default; ignored when no
	// slow log is configured).
	SlowQueryMS float64 `json:"slow_query_ms"`
	// AllowPartial opts this request into degraded results: when the
	// selected backend is a shard router with circuit breakers, queries
	// proceed over the surviving shards instead of failing while a child
	// is down. Responses computed this way carry "degraded": true and
	// are never cached.
	AllowPartial bool `json:"allow_partial"`
	// ServeStale opts this request into stale-on-outage serving: when
	// the backend is entirely unavailable, the last complete result for
	// this request shape (if any) is returned marked "stale": true
	// instead of a 5xx. Requires caching (the default).
	ServeStale bool `json:"serve_stale"`
}

// RecommendedView is one ranked visualization.
type RecommendedView struct {
	Rank      int       `json:"rank"`
	Dimension string    `json:"dimension"`
	Measure   string    `json:"measure"`
	Aggregate string    `json:"aggregate"`
	Utility   float64   `json:"utility"`
	Partial   bool      `json:"partial"`
	Groups    []string  `json:"groups"`
	Target    []float64 `json:"target"`
	Reference []float64 `json:"reference"`
	Chart     string    `json:"chart"`
}

// RecommendResponse is the recommendation result.
type RecommendResponse struct {
	Recommendations []RecommendedView `json:"recommendations"`
	Views           int               `json:"views_evaluated"`
	QueriesExecuted int               `json:"queries_executed"`
	RowsScanned     int64             `json:"rows_scanned"`
	PrunedViews     int               `json:"pruned_views"`
	EarlyStopped    bool              `json:"early_stopped"`
	CacheHits       int               `json:"cache_hits"`
	CacheMisses     int               `json:"cache_misses"`
	RefViewsReused  int               `json:"ref_views_reused"`
	ServedFromCache bool              `json:"served_from_cache"`
	Vectorized      int               `json:"vectorized_queries"`
	Fallback        int               `json:"fallback_queries"`
	FallbackReasons map[string]int    `json:"fallback_reasons,omitempty"`
	SelectionKernel int               `json:"selection_kernels"`
	ResidualPreds   int               `json:"residual_predicates"`
	ScanWorkers     int               `json:"scan_workers"`
	// Shard fan-out cost of this request (zero on leaf backends): queries
	// fanned out, total child executions, and the slowest child.
	ShardQueries     int     `json:"shard_queries"`
	ShardFanout      int     `json:"shard_fanout"`
	ShardStragglerMS float64 `json:"shard_straggler_ms"`
	// Backend names the backend that served the request; Strategy is the
	// strategy actually executed there (capability degradation may turn
	// a phased request into single-pass SHARING). StrategyDegraded flags
	// that rewrite explicitly, with DegradedFrom naming what was asked.
	Backend          string `json:"backend"`
	Strategy         string `json:"strategy"`
	StrategyDegraded bool   `json:"strategy_degraded"`
	DegradedFrom     string `json:"degraded_from,omitempty"`
	// Degraded marks a result computed from partial shard coverage under
	// allow_partial; DegradedShards lists the shard indices that were
	// skipped. Stale marks a result replayed from the result cache under
	// serve_stale while the backend was unavailable.
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedShards []int   `json:"degraded_shards,omitempty"`
	Stale          bool    `json:"stale,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	// TraceID identifies the request's trace when it was traced or
	// head-sampled; the completed tree is retrievable from GET
	// /api/traces/{id} while it stays in the trace store. Trace is the
	// tree itself, present only when the request set {"trace": true}
	// (sampled requests get the ID alone). Rendered client-side by
	// seedb -trace.
	TraceID string              `json:"trace_id,omitempty"`
	Trace   *telemetry.SpanNode `json:"trace,omitempty"`
}

// handleRecommend implements POST /api/recommend.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	coreReq := core.Request{
		Table:          req.Table,
		TargetWhere:    req.TargetWhere,
		ReferenceWhere: req.ReferenceWhere,
		Dimensions:     req.Dimensions,
		Measures:       req.Measures,
	}
	switch strings.ToLower(req.Reference) {
	case "", "all":
		coreReq.Reference = core.RefAll
	case "complement":
		coreReq.Reference = core.RefComplement
	case "custom":
		coreReq.Reference = core.RefCustom
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown reference %q", req.Reference))
		return
	}
	for _, a := range req.Aggregates {
		coreReq.Aggs = append(coreReq.Aggs, core.AggFunc(strings.ToUpper(a)))
	}

	opts := core.Options{
		K:                  req.K,
		EnableCache:        req.Cache == nil || *req.Cache,
		ScanParallelism:    req.ScanParallelism,
		SlowQueryThreshold: time.Duration(req.SlowQueryMS * float64(time.Millisecond)),
		AllowPartial:       req.AllowPartial,
		ServeStaleOnError:  req.ServeStale,
	}
	switch strings.ToLower(req.Strategy) {
	case "noopt":
		opts.Strategy = core.NoOpt
	case "sharing":
		opts.Strategy = core.Sharing
	case "", "comb":
		opts.Strategy = core.Comb
	case "combearly", "early":
		opts.Strategy = core.CombEarly
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown strategy %q", req.Strategy))
		return
	}
	switch strings.ToLower(req.Pruning) {
	case "none":
		opts.Pruning = core.NoPruning
	case "", "ci":
		opts.Pruning = core.CIPruning
	case "mab":
		opts.Pruning = core.MABPruning
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown pruning %q", req.Pruning))
		return
	}
	if req.Distance != "" {
		f, err := distance.ParseFunc(strings.ToUpper(req.Distance))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		opts.Distance = f
	}

	rb, err := s.backendFor(req.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	// Tracing: an explicit {"trace": true} always traces (the
	// per-request override); otherwise head sampling may pick the
	// request up, retaining its tree in the trace store without
	// inflating the response.
	var tr *telemetry.Trace
	if req.Trace || (s.traceSample > 0 && telemetry.ShouldSample(s.traceSample)) {
		ctx, tr = telemetry.WithTrace(ctx, "request")
	}
	res, err := rb.engine.Recommend(ctx, coreReq, opts)
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	s.exec.record(res.Metrics)
	if res.Metrics.ShardsDegraded > 0 {
		s.degradedRequests.Add(1)
	}
	if res.Metrics.ServedStale {
		s.staleServes.Add(1)
	}

	resp := RecommendResponse{
		Backend:          rb.name,
		Strategy:         core.EffectiveStrategy(opts.Strategy, rb.be.Capabilities()).String(),
		Recommendations:  []RecommendedView{},
		Views:            res.Metrics.Views,
		QueriesExecuted:  res.Metrics.QueriesExecuted,
		RowsScanned:      res.Metrics.RowsScanned,
		PrunedViews:      res.Metrics.PrunedViews,
		EarlyStopped:     res.Metrics.EarlyStopped,
		CacheHits:        res.Metrics.CacheHits,
		CacheMisses:      res.Metrics.CacheMisses,
		RefViewsReused:   res.Metrics.RefViewsReused,
		ServedFromCache:  res.Metrics.ServedFromCache,
		Vectorized:       res.Metrics.VectorizedQueries,
		Fallback:         res.Metrics.FallbackQueries,
		FallbackReasons:  res.Metrics.FallbackReasons,
		SelectionKernel:  res.Metrics.SelectionKernels,
		ResidualPreds:    res.Metrics.ResidualPredicates,
		ScanWorkers:      res.Metrics.ScanWorkers,
		ShardQueries:     res.Metrics.ShardQueries,
		ShardFanout:      res.Metrics.ShardFanout,
		ShardStragglerMS: float64(res.Metrics.ShardStragglerMax.Microseconds()) / 1000,
		StrategyDegraded: res.Metrics.StrategyDegraded,
		DegradedFrom:     res.Metrics.DegradedFrom,
		Degraded:         res.Metrics.ShardsDegraded > 0,
		DegradedShards:   res.Metrics.DegradedShards,
		Stale:            res.Metrics.ServedStale,
		ElapsedMS:        float64(res.Metrics.Elapsed.Microseconds()) / 1000,
	}
	if tr != nil {
		node := tr.Finish()
		resp.TraceID = tr.ID()
		if req.Trace {
			resp.Trace = node
		}
		s.traces.Add(tr.ID(), node)
	}
	for i, rec := range res.Recommendations {
		title := fmt.Sprintf("%s    [utility %.4f]", rec.View.String(), rec.Utility)
		resp.Recommendations = append(resp.Recommendations, RecommendedView{
			Rank:      i + 1,
			Dimension: rec.View.Dimension,
			Measure:   rec.View.Measure,
			Aggregate: string(rec.View.Agg),
			Utility:   rec.Utility,
			Partial:   rec.Partial,
			Groups:    rec.Groups,
			Target:    rec.Target,
			Reference: rec.Reference,
			Chart:     chart.Render(title, rec.Groups, rec.Target, rec.Reference, chart.Options{ASCII: true}),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseLayout resolves a layout name.
func parseLayout(s string) (sqldb.Layout, error) {
	switch strings.ToLower(s) {
	case "", "col", "column":
		return sqldb.LayoutCol, nil
	case "row":
		return sqldb.LayoutRow, nil
	default:
		return 0, fmt.Errorf("unknown layout %q (want row or col)", s)
	}
}
