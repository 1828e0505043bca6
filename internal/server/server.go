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
//	GET  /api/backend/info      ?table= → schema, row count, version token (404 = no table)
//	GET  /api/backend/stats     ?table= → per-column statistics
//
// The three /api/backend/* endpoints plus the typed /api/query mode form
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
// Every request crosses one chain (middleware.go) — panic recovery,
// then admission control, then the route mux — and every POST body is
// read by one bounded decoder: 413 past 32 MiB, 400 for malformed JSON
// or anything after the JSON value.
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
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/backend/shardbe"
	"seedb/internal/cache"
	"seedb/internal/core"
	"seedb/internal/dataset"
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
	// handler is what ServeHTTP runs: the middleware chain over mux.
	handler http.Handler
	exec    executorStats
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

	// dataMu serializes the writers of table data: /api/ingest, the
	// dataset loaders and EnableSharding's scatter. Readers take no
	// lock — a Recommend pins the row count its TableInfo read and scans
	// only those rows (see ingest.go). It also guards shardDBs, which
	// only writers read: the shard children EnableSharding registered a
	// router over, which ingests and dataset loads mirror into.
	dataMu   sync.Mutex
	shardDBs []*sqldb.DB

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

// registeredBackend is one named backend with its engine.
type registeredBackend struct {
	name   string
	be     backend.Backend
	engine *core.Engine
}

// breakerReporter is implemented by backends (the shard router with
// Options.Breakers set) that expose per-child circuit-breaker state.
type breakerReporter interface {
	BreakerStats() []resilience.BreakerStats
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
	s.handler = s.recoverPanics(s.admit(s.mux))
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
func (s *Server) RegisterBackend(name string, be backend.Backend) error {
	if name == "" {
		return fmt.Errorf("server: backend name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.backends[name]; dup {
		return fmt.Errorf("server: backend %q already registered", name)
	}
	eng := core.NewEngine(be)
	eng.SetCache(s.cache)
	eng.SetTelemetry(s.tel)
	s.backends[name] = &registeredBackend{name: name, be: be, engine: eng}
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
// (circuit breakers) and an optional per-child wrapper: wrap(i, child)
// replaces child i in the router, letting callers interpose fault
// injection or instrumentation between the router and an embedded
// shard. The options' Telemetry is
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
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	s.shardDBs = dbs
	for _, name := range s.db.TableNames() {
		if err := s.scatterShards(name); err != nil {
			return err
		}
	}
	return nil
}

// scatterShards mirrors one embedded table across the shard children
// (a no-op when sharding is off). The caller holds dataMu.
func (s *Server) scatterShards(table string) error {
	if len(s.shardDBs) == 0 {
		return nil
	}
	t, ok := s.db.Table(table)
	if !ok {
		return nil
	}
	return shardbe.ScatterTable(s.db, table, s.shardDBs, shardbe.Blocks{Total: t.NumRows()})
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
	SupportsPhasedExecution bool   `json:"supports_phased_execution"`
}

// backendSnapshot lists registered backends, default first then by name.
func (s *Server) backendSnapshot() []backendInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]backendInfo, 0, len(s.backends))
	for name, rb := range s.backends {
		out = append(out, backendInfo{
			Name:                    name,
			Default:                 name == DefaultBackendName,
			SupportsPhasedExecution: rb.be.Capabilities().SupportsPhasedExecution,
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

// ServeHTTP implements http.Handler: the chain New assembled — panic
// containment, then admission control, then the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// handleHealth implements GET /healthz. The payload carries the cache
// and executor counters (so load balancers and dashboards see hit rates
// and fast-path coverage without a second probe) plus the registered
// backends with their capability flags.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.scrape()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"cache":      snap.cache,
		"executor":   executorHealth(snap),
		"backends":   s.backendSnapshot(),
		"resilience": s.resilienceSnapshot(snap.breakers),
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
	// state is State before rendering: the seedb_breaker_state gauge.
	state resilience.State
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
		if rep, ok := rb.be.(breakerReporter); ok {
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
				state:       bs.State,
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
func (s *Server) resilienceSnapshot(brs []breakerHealth) map[string]any {
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
	if len(brs) > 0 {
		out["breakers"] = brs
	}
	return out
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
	req, ok := decode[loadRequest](w, r)
	if !ok {
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
	layout, err := sqldb.ParseLayout(cmp.Or(req.Layout, "col"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.install(w, spec.Name, spec.Rows, func() error {
		_, err := dataset.Build(s.db, spec, layout)
		return err
	})
}

// install runs build — which creates the named table in the embedded
// store — and mirrors the table across the shard children, so
// {"backend": "shard"} requests see every loaded table. Both hold the
// writer mutex, so no ingest interleaves with them. Readers take no
// lock: a request that starts mid-load reads the rows loaded so far
// (docs/ARCHITECTURE.md, "One request, one table state").
func (s *Server) install(w http.ResponseWriter, table string, rows int, build func() error) {
	s.dataMu.Lock()
	err := build()
	if err == nil {
		err = s.scatterShards(table)
	}
	s.dataMu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": table, "rows": rows})
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
	req, ok := decode[wire.QueryRequest](w, r)
	if !ok {
		return
	}
	rb, err := s.backendFor(req.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.deadline(r.Context())
	defer cancel()
	if req.AllowPartial {
		ctx = backend.WithAllowPartial(ctx)
	}
	// A Traceparent header means a remote caller (netbe) is tracing:
	// open a child-side trace under the caller's span, so the executor
	// spans of this process travel home in the wire response.
	var ctr *telemetry.Trace
	if tid, psid, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
		ctx, ctr = telemetry.WithRemoteTrace(ctx, "child.query", tid, psid)
	}
	start := time.Now()
	res, stats, err := rb.be.Exec(ctx, req.SQL, req.ExecOptions)
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
		stats.StampSpan(ctr.Root())
		childTrace = ctr.Finish()
	}
	if stats.ShardsDegraded > 0 {
		s.degradedRequests.Add(1)
	}
	s.tel.ObserveQuery(elapsed)
	s.exec.recordQuery(stats)
	if req.Wire {
		writeJSON(w, http.StatusOK, wire.QueryResponse{
			Columns: res.Columns,
			Rows:    wire.EncodeRows(res.Rows),
			Stats:   stats,
			Trace:   childTrace,
		})
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

// RecommendRequest is the POST /api/recommend payload: the one textual
// request schema, declared in core next to the Resolve that interprets
// it.
type RecommendRequest = core.RecommendRequest

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
	// Degraded marks a result computed from partial shard coverage;
	// DegradedShards lists the shard indices that were skipped. Stale
	// marks a result replayed from the result cache while the backend
	// was unavailable. Both happen only to requests that opted in.
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

// handleRecommend implements POST /api/recommend: decode the textual
// request, resolve it, pick the backend, decide on tracing, run the
// engine, shape the response.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[RecommendRequest](w, r)
	if !ok {
		return
	}
	coreReq, opts, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rb, err := s.backendFor(req.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.deadline(r.Context())
	defer cancel()
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
	resp := responseFrom(rb, opts.Strategy, res)
	if tr != nil {
		node := tr.Finish()
		resp.TraceID = tr.ID()
		if req.Trace {
			resp.Trace = node
		}
		s.traces.Add(tr.ID(), node)
	}
	recs, err := res.EncodedRecommendations(encodeViews)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding recommendations: %w", err))
		return
	}
	writeRecommend(w, recs, resp)
}

// recsKey opens every /api/recommend body.
const recsKey = `{"recommendations":`

// writeRecommend writes resp with recs, an encoded RecommendedView
// array, as its recommendations. resp is encoded without them and recs
// is spliced in place of the null, so the body is byte for byte what
// writeJSON would send for the whole response, without re-encoding
// recs (an r entry encodes them once, see
// core.Result.EncodedRecommendations).
func writeRecommend(w http.ResponseWriter, recs []byte, resp RecommendResponse) {
	meta, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	// Recommendations is RecommendResponse's first field.
	rest := meta[len(recsKey+"null"):]
	body := make([]byte, 0, len(recsKey)+len(recs)+len(rest)+1)
	body = append(body, recsKey...)
	body = append(body, recs...)
	body = append(body, rest...)
	writeBody(w, http.StatusOK, append(body, '\n'))
}

// encodeViews encodes a result's recommendations as the response's
// RecommendedView array.
func encodeViews(recs []core.Recommendation) ([]byte, error) {
	views := make([]RecommendedView, len(recs))
	for i, rec := range recs {
		views[i] = RecommendedView{
			Rank:      i + 1,
			Dimension: rec.View.Dimension,
			Measure:   rec.View.Measure,
			Aggregate: string(rec.View.Agg),
			Utility:   rec.Utility,
			Partial:   rec.Partial,
			Groups:    rec.Groups,
			Target:    rec.Target,
			Reference: rec.Reference,
		}
	}
	return json.Marshal(views)
}

// responseFrom shapes an engine result's metrics for the wire, leaving
// out the recommendations (see writeRecommend). requested is the
// strategy the client asked for; the response names the one that ran.
func responseFrom(rb *registeredBackend, requested core.Strategy, res *core.Result) RecommendResponse {
	m := res.Metrics
	resp := RecommendResponse{
		Backend:          rb.name,
		Strategy:         core.EffectiveStrategy(requested, rb.be.Capabilities()).String(),
		Views:            m.Views,
		QueriesExecuted:  m.QueriesExecuted,
		RowsScanned:      m.RowsScanned,
		PrunedViews:      m.PrunedViews,
		EarlyStopped:     m.EarlyStopped,
		CacheHits:        m.CacheHits,
		CacheMisses:      m.CacheMisses,
		ServedFromCache:  m.ServedFromCache,
		Vectorized:       m.VectorizedQueries,
		Fallback:         m.FallbackQueries,
		FallbackReasons:  m.FallbackReasons,
		SelectionKernel:  m.SelectionKernels,
		ResidualPreds:    m.ResidualPredicates,
		ScanWorkers:      m.ScanWorkers,
		ShardQueries:     m.ShardQueries,
		ShardFanout:      m.ShardFanout,
		ShardStragglerMS: float64(m.ShardStragglerMax.Microseconds()) / 1000,
		StrategyDegraded: m.StrategyDegraded,
		DegradedFrom:     m.DegradedFrom,
		Degraded:         m.ShardsDegraded > 0,
		DegradedShards:   m.DegradedShards,
		Stale:            m.ServedStale,
		ElapsedMS:        float64(m.Elapsed.Microseconds()) / 1000,
	}
	return resp
}
