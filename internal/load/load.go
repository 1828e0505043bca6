// Package load is the production load harness: it replays a mixed,
// Zipf-skewed workload against a running seedb-server over HTTP and
// reports throughput plus latency percentiles per traffic class.
//
// The workload model is the north-star traffic shape the ROADMAP
// describes, scaled down to a knob set:
//
//   - N concurrent simulated users, each a goroutine with its own
//     deterministic RNG (seed + user index), issuing requests
//     back-to-back until the wall-clock deadline;
//   - recommend traffic (/api/recommend) whose target predicates are
//     drawn Zipf-skewed from a popularity-ranked pool — a few analyses
//     are hot (and should ride the result cache), the rest are a long
//     tail;
//   - cache-hostile tail queries: a configurable fraction of recommend
//     traffic targets uniformly random values of the highest-cardinality
//     column, so each is almost surely a cold cache miss;
//   - raw query traffic (/api/query), the manual chart-building path;
//   - concurrent ingest (/api/ingest): batches of generated rows
//     appended mid-replay, exercising version-based cache invalidation
//     and the server's reader/writer data guard under fire.
//
// Latencies are recorded into telemetry.Histogram per class — the same
// histogram machinery the server exports on /metrics — so driver-side
// and server-side percentiles are directly comparable. The report
// cross-checks the driver's observed query count (the sum of every
// response's queries_executed, plus one per raw query) against the
// server's /healthz queries_executed delta: the two must match exactly,
// which catches dropped requests, double counting, and silent errors in
// either process.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/backend/netbe/wire"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/telemetry"
)

// Traffic class names, used as map keys in the report.
const (
	ClassRecommend = "recommend"
	ClassQuery     = "query"
	ClassIngest    = "ingest"
)

// Mix weighs the traffic classes; weights are normalized, so {6, 3, 1}
// means 60% recommends, 30% raw queries, 10% ingest batches.
type Mix struct {
	Recommend float64 `json:"recommend"`
	Query     float64 `json:"query"`
	Ingest    float64 `json:"ingest"`
}

// DefaultMix is read-heavy with a write stream, the analytic-dashboard
// shape: mostly recommendations, some manual charts, a trickle of
// appends (each append invalidates the table's cached results, so even
// a trickle keeps the cache honest).
func DefaultMix() Mix { return Mix{Recommend: 0.60, Query: 0.35, Ingest: 0.05} }

// Config parameterizes one load run.
type Config struct {
	// BaseURL locates the target server (e.g. "http://127.0.0.1:8080").
	BaseURL string `json:"base_url"`
	// Spec is the synthetic table the workload runs over; the driver
	// derives its predicate pools, recommend dimensions/measures, and
	// ingest row shape from it. The table must already be loaded (see
	// PushSpec) under Spec.Name.
	Spec dataset.SynthSpec `json:"-"`
	// Users is the number of concurrent simulated users (default 8).
	Users int `json:"users"`
	// Duration is the replay wall-clock budget (default 5s).
	Duration time.Duration `json:"-"`
	// Seed makes the whole replay deterministic modulo scheduling: user
	// u draws from rng(Seed*1e6 + u).
	Seed int64 `json:"seed"`
	// Mix weighs the traffic classes (zero value = DefaultMix).
	Mix Mix `json:"mix"`
	// TailFraction is the probability a recommend request is
	// cache-hostile (uniform draw over the highest-cardinality column)
	// instead of Zipf-popular. Default 0.15.
	TailFraction float64 `json:"tail_fraction"`
	// ZipfS skews the popularity ranking of the predicate pool
	// (default 1.2; must be > 1).
	ZipfS float64 `json:"zipf_s"`
	// K is the recommend top-k (default 3).
	K int `json:"k"`
	// IngestBatch is the rows per ingest request (default 50).
	IngestBatch int `json:"ingest_batch"`
	// Backend optionally routes recommend/query traffic to a named
	// server backend ("" = the embedded default).
	Backend string `json:"backend,omitempty"`
	// Chaos marks a run whose harness injects a mid-run child outage
	// (see cmd/seedb-loadgen -chaos). Every read then opts into degraded
	// results: with a breaker-equipped shard backend the outage yields
	// 200s covering the surviving shards (marked degraded) instead of
	// 5xx. Validate additionally requires that degraded responses were
	// actually observed — the outage must have been hit — while keeping
	// the zero-error gate: graceful degradation means the fault is
	// absorbed, not surfaced.
	Chaos bool `json:"chaos,omitempty"`
	// Client overrides the HTTP client (default: no timeout — the
	// driver never abandons an in-flight request, which is what keeps
	// the driver/server query-count cross-check exact).
	Client *http.Client `json:"-"`
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix()
	}
	if c.TailFraction == 0 {
		c.TailFraction = 0.15
	}
	if c.TailFraction < 0 {
		c.TailFraction = 0
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.IngestBatch <= 0 {
		c.IngestBatch = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// ClassStats is one traffic class's share of the report.
type ClassStats struct {
	Count         uint64  `json:"count"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanMS        float64 `json:"mean_ms"`
}

// Report is the load run's result — what seedb-loadgen -o writes
// (schema in docs/BENCHMARKS.md).
type Report struct {
	Experiment string  `json:"experiment"`
	Table      string  `json:"table"`
	RowsLoaded int     `json:"rows_loaded"`
	Users      int     `json:"users"`
	DurationS  float64 `json:"duration_s"`
	Seed       int64   `json:"seed"`
	Backend    string  `json:"backend,omitempty"`
	Mix        Mix     `json:"mix"`
	GoMaxProcs int     `json:"gomaxprocs"`

	Classes map[string]ClassStats `json:"classes"`

	TotalRequests uint64  `json:"total_requests"`
	ThroughputRPS float64 `json:"throughput_rps"`
	ErrorCount    int64   `json:"error_count"`
	// FirstErrors preserves a few error messages for diagnosis (the
	// counters alone can't say *why* a run went bad).
	FirstErrors []string `json:"first_errors,omitempty"`

	// RowsIngested counts rows appended by the ingest class.
	RowsIngested int64 `json:"rows_ingested"`
	// CacheServed counts recommend responses answered entirely from the
	// result cache — the Zipf head doing its job.
	CacheServed int64 `json:"cache_served"`
	// Chaos echoes Config.Chaos; DegradedResponses counts recommend 200s
	// computed from partial shard coverage during the injected outage,
	// StaleResponses counts 200s replayed stale from the result cache, and
	// ShedResponses counts 503/429 admission rejections (these also
	// count as errors — the driver's SLO gate treats shedding as a
	// capacity failure the run must be sized to avoid).
	Chaos             bool  `json:"chaos,omitempty"`
	DegradedResponses int64 `json:"degraded_responses"`
	StaleResponses    int64 `json:"stale_responses"`
	ShedResponses     int64 `json:"shed_responses"`

	// DriverQueriesObserved sums queries_executed over every recommend
	// response plus one per successful raw query; ServerQueriesDelta is
	// the server's /healthz queries_executed growth over the run. They
	// must match exactly.
	DriverQueriesObserved int64 `json:"driver_queries_observed"`
	ServerQueriesDelta    int64 `json:"server_queries_delta"`
	QueriesMatch          bool  `json:"queries_match"`
}

// Validate applies the SLO regression gates CI and the loadgen CLI
// enforce on a finished report: every class that ran must carry sane
// percentiles, throughput must be positive, no request may have failed,
// and the driver/server query accounting must agree.
func (r *Report) Validate() error {
	var probs []string
	if r.TotalRequests == 0 || r.ThroughputRPS <= 0 {
		probs = append(probs, fmt.Sprintf("no throughput (requests=%d, rps=%.2f)", r.TotalRequests, r.ThroughputRPS))
	}
	if r.ErrorCount > 0 {
		probs = append(probs, fmt.Sprintf("%d request errors (first: %s)", r.ErrorCount, strings.Join(r.FirstErrors, "; ")))
	}
	for _, class := range []string{ClassRecommend, ClassQuery} {
		cs, ok := r.Classes[class]
		if !ok || cs.Count == 0 {
			probs = append(probs, fmt.Sprintf("class %s never ran", class))
			continue
		}
		if cs.P50MS <= 0 || cs.P95MS < cs.P50MS || cs.P99MS < cs.P95MS {
			probs = append(probs, fmt.Sprintf("class %s percentiles malformed (p50=%.3f p95=%.3f p99=%.3f)",
				class, cs.P50MS, cs.P95MS, cs.P99MS))
		}
	}
	if !r.QueriesMatch {
		probs = append(probs, fmt.Sprintf("driver observed %d queries, server executed %d",
			r.DriverQueriesObserved, r.ServerQueriesDelta))
	}
	if r.Chaos && r.DegradedResponses == 0 && r.StaleResponses == 0 {
		// The zero-error gate above already proves no 5xx leaked; this
		// gate proves the run actually exercised the outage — a chaos run
		// where nothing degraded tested nothing.
		probs = append(probs, "chaos run observed no degraded or stale responses (outage never hit)")
	}
	if len(probs) > 0 {
		return fmt.Errorf("load report failed validation: %s", strings.Join(probs, "; "))
	}
	return nil
}

// workload is the precomputed request material every user draws from.
type workload struct {
	table string
	// popular predicates, rank 0 hottest; drawn via Zipf.
	predicates []string
	// tailCol/tailCard parameterize cache-hostile draws: a uniformly
	// random value of the highest-cardinality string column.
	tailCol  string
	tailCard int
	// dims/measures bound the recommend view space (1-core calibration:
	// a handful of views per request, not the full cross product).
	dims     []string
	measures []string
	// queries are raw /api/query SQL texts, drawn Zipf like predicates.
	queries []string
}

// buildWorkload derives the request pools from the spec.
func buildWorkload(spec dataset.SynthSpec) (*workload, error) {
	w := &workload{table: spec.Name}

	type cat struct {
		name string
		card int
	}
	var cats []cat
	for _, c := range spec.Columns {
		if card := spec.Cardinality(c.Name); card > 0 {
			cats = append(cats, cat{c.Name, card})
		}
	}
	if len(cats) == 0 {
		return nil, fmt.Errorf("load: spec %s has no string columns to predicate on", spec.Name)
	}
	sort.SliceStable(cats, func(a, b int) bool { return cats[a].card < cats[b].card })

	// Popular predicates: equality on values of the low-cardinality
	// columns, most-popular values first (value index 0 is the most
	// likely under every skewed distribution the generator offers).
	for _, c := range cats {
		if c.card > 16 {
			continue
		}
		for i := 0; i < c.card; i++ {
			w.predicates = append(w.predicates,
				fmt.Sprintf("%s = '%s'", c.name, escapeSQL(spec.ValueName(c.name, i))))
		}
	}
	if len(w.predicates) == 0 {
		c := cats[0]
		for i := 0; i < c.card && i < 16; i++ {
			w.predicates = append(w.predicates,
				fmt.Sprintf("%s = '%s'", c.name, escapeSQL(spec.ValueName(c.name, i))))
		}
	}

	// The tail targets the highest-cardinality column.
	w.tailCol = cats[len(cats)-1].name
	w.tailCard = cats[len(cats)-1].card

	// Dimensions: up to three low-cardinality columns (grouped charts
	// want few groups); measures: up to two numeric columns. This keeps
	// each recommend at a handful of views so single-core cold latency
	// stays interactive at millions of rows.
	for _, c := range cats {
		if len(w.dims) < 3 && c.card <= 32 {
			w.dims = append(w.dims, c.name)
		}
	}
	if len(w.dims) == 0 {
		w.dims = []string{cats[0].name}
	}
	for _, c := range spec.Columns {
		if (c.Type == "float" || c.Type == "int") && len(w.measures) < 2 {
			w.measures = append(w.measures, c.Name)
		}
	}
	if len(w.measures) == 0 {
		return nil, fmt.Errorf("load: spec %s has no numeric columns to measure", spec.Name)
	}

	// Raw query pool: grouped aggregates over dim × measure × agg,
	// optionally filtered by a popular predicate.
	aggs := []string{"COUNT(*)", "SUM", "AVG"}
	for _, d := range w.dims {
		for _, m := range w.measures {
			for _, a := range aggs {
				expr := a
				if a != "COUNT(*)" {
					expr = fmt.Sprintf("%s(%s)", a, m)
				}
				w.queries = append(w.queries,
					fmt.Sprintf("SELECT %s, %s FROM %s GROUP BY %s", d, expr, spec.Name, d))
				w.queries = append(w.queries,
					fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s GROUP BY %s",
						d, expr, spec.Name, w.predicates[0], d))
			}
		}
	}
	return w, nil
}

// escapeSQL doubles single quotes for SQL string literals.
func escapeSQL(s string) string { return strings.ReplaceAll(s, "'", "''") }

// counters aggregates worker observations; histograms and atomics are
// all safe for concurrent use.
type counters struct {
	hists        map[string]*telemetry.Histogram
	counts       map[string]*atomic.Uint64
	errors       atomic.Int64
	rowsIngested atomic.Int64
	cacheServed  atomic.Int64
	queriesSeen  atomic.Int64
	degraded     atomic.Int64
	stale        atomic.Int64
	shed         atomic.Int64

	errMu     sync.Mutex
	firstErrs []string
}

func newCounters() *counters {
	c := &counters{
		hists:  map[string]*telemetry.Histogram{},
		counts: map[string]*atomic.Uint64{},
	}
	for _, class := range []string{ClassRecommend, ClassQuery, ClassIngest} {
		c.hists[class] = &telemetry.Histogram{}
		c.counts[class] = &atomic.Uint64{}
	}
	return c
}

// fail records one failed request.
func (c *counters) fail(class string, err error) {
	c.errors.Add(1)
	c.errMu.Lock()
	if len(c.firstErrs) < 5 {
		c.firstErrs = append(c.firstErrs, fmt.Sprintf("%s: %v", class, err))
	}
	c.errMu.Unlock()
}

// Run replays the configured workload and returns the report. The
// target table (cfg.Spec.Name) must already be loaded server-side; use
// PushSpec first when driving a fresh server. Run returns an error only
// for harness-level failures (unreachable server, bad spec); request
// failures are counted in the report and surfaced by Validate.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: Config.BaseURL is required")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	w, err := buildWorkload(cfg.Spec)
	if err != nil {
		return nil, err
	}

	rowsLoaded, queriesBefore, err := serverSnapshot(ctx, cfg, w.table)
	if err != nil {
		return nil, err
	}

	cnt := newCounters()
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			newUser(cfg, w, cnt, u).replay(ctx, deadline)
		}(u)
	}
	wg.Wait()
	// Every worker has joined and no request is in flight, so the
	// server's counters are quiescent: snapshot the delta.
	_, queriesAfter, err := serverSnapshot(ctx, cfg, w.table)
	if err != nil {
		return nil, err
	}

	total := uint64(0)
	for _, c := range cnt.counts {
		total += c.Load()
	}
	r := &Report{
		Experiment: "load",
		Table:      w.table,
		RowsLoaded: rowsLoaded,
		Users:      cfg.Users,
		DurationS:  cfg.Duration.Seconds(),
		Seed:       cfg.Seed,
		Backend:    cfg.Backend,
		Mix:        cfg.Mix,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Classes:    map[string]ClassStats{},

		TotalRequests:     total,
		ThroughputRPS:     float64(total) / cfg.Duration.Seconds(),
		ErrorCount:        cnt.errors.Load(),
		FirstErrors:       cnt.firstErrs,
		RowsIngested:      cnt.rowsIngested.Load(),
		CacheServed:       cnt.cacheServed.Load(),
		Chaos:             cfg.Chaos,
		DegradedResponses: cnt.degraded.Load(),
		StaleResponses:    cnt.stale.Load(),
		ShedResponses:     cnt.shed.Load(),

		DriverQueriesObserved: cnt.queriesSeen.Load(),
		ServerQueriesDelta:    queriesAfter - queriesBefore,
	}
	r.QueriesMatch = r.DriverQueriesObserved == r.ServerQueriesDelta
	for class, h := range cnt.hists {
		snap := h.Snapshot()
		cs := ClassStats{
			Count:         cnt.counts[class].Load(),
			ThroughputRPS: float64(cnt.counts[class].Load()) / cfg.Duration.Seconds(),
			P50MS:         snap.P50MS,
			P95MS:         snap.P95MS,
			P99MS:         snap.P99MS,
		}
		if snap.Count > 0 {
			cs.MeanMS = snap.SumMS / float64(snap.Count)
		}
		r.Classes[class] = cs
	}
	return r, nil
}

// user is one simulated analyst: a deterministic RNG plus its ingest
// row generator.
type user struct {
	cfg  Config
	w    *workload
	cnt  *counters
	rng  *rand.Rand
	zipf *rand.Zipf
	qz   *rand.Zipf
	gen  *dataset.RowGen
	buf  bytes.Buffer
}

// newUser seeds user u.
func newUser(cfg Config, w *workload, cnt *counters, u int) *user {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(u)))
	// Each user generates a disjoint ingest row stream (its own seed),
	// so concurrent appends never insert identical data.
	gen, _ := dataset.NewRowGen(cfg.Spec, cfg.Seed*7_000_003+int64(u)+1)
	return &user{
		cfg:  cfg,
		w:    w,
		cnt:  cnt,
		rng:  rng,
		zipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(w.predicates)-1)),
		qz:   rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(w.queries)-1)),
		gen:  gen,
	}
}

// replay issues requests until the deadline. In-flight requests are
// never cancelled at the deadline — they finish and count, preserving
// the query-accounting cross-check.
func (s *user) replay(ctx context.Context, deadline time.Time) {
	mix := s.cfg.Mix
	norm := mix.Recommend + mix.Query + mix.Ingest
	if norm <= 0 {
		return
	}
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return
		}
		u := s.rng.Float64() * norm
		switch {
		case u < mix.Recommend:
			s.doRecommend(ctx)
		case u < mix.Recommend+mix.Query:
			s.doQuery(ctx)
		default:
			s.doIngest(ctx)
		}
	}
}

// recommendResult is the slice of the server response the driver needs.
type recommendResult struct {
	QueriesExecuted int64 `json:"queries_executed"`
	ServedFromCache bool  `json:"served_from_cache"`
	Degraded        bool  `json:"degraded"`
	Stale           bool  `json:"stale"`
}

// doRecommend issues one /api/recommend draw: Zipf-popular predicate,
// or a cache-hostile uniform tail draw with probability TailFraction.
func (s *user) doRecommend(ctx context.Context) {
	var where string
	if s.rng.Float64() < s.cfg.TailFraction {
		v := s.rng.Intn(s.w.tailCard)
		where = fmt.Sprintf("%s = '%s'", s.w.tailCol, escapeSQL(s.cfg.Spec.ValueName(s.w.tailCol, v)))
	} else {
		where = s.w.predicates[int(s.zipf.Uint64())]
	}
	req := core.RecommendRequest{
		Table:        s.w.table,
		TargetWhere:  where,
		K:            s.cfg.K,
		Dimensions:   s.w.dims,
		Measures:     s.w.measures,
		Aggregates:   []string{"AVG"},
		Backend:      s.cfg.Backend,
		AllowPartial: s.cfg.Chaos,
	}
	var res recommendResult
	if s.timedPost(ctx, ClassRecommend, "/api/recommend", req, &res) {
		s.cnt.queriesSeen.Add(res.QueriesExecuted)
		if res.ServedFromCache {
			s.cnt.cacheServed.Add(1)
		}
		if res.Degraded {
			s.cnt.degraded.Add(1)
		}
		if res.Stale {
			s.cnt.stale.Add(1)
		}
	}
}

// doQuery issues one raw /api/query draw from the Zipf-ranked pool.
func (s *user) doQuery(ctx context.Context) {
	sql := s.w.queries[int(s.qz.Uint64())]
	req := wire.QueryRequest{SQL: sql, Backend: s.cfg.Backend}
	req.AllowPartial = s.cfg.Chaos
	if s.timedPost(ctx, ClassQuery, "/api/query", req, nil) {
		// One /api/query = exactly one backend execution folded into
		// the server's queries_executed.
		s.cnt.queriesSeen.Add(1)
	}
}

// doIngest appends one generated batch.
func (s *user) doIngest(ctx context.Context) {
	rows := make([][]string, s.cfg.IngestBatch)
	for i := range rows {
		vals := s.gen.Next()
		cells := make([]string, len(vals))
		for j, v := range vals {
			if v.IsNull() {
				cells[j] = ""
			} else {
				cells[j] = v.String()
			}
		}
		rows[i] = cells
	}
	req := map[string]any{"table": s.w.table, "rows": rows}
	if s.timedPost(ctx, ClassIngest, "/api/ingest", req, nil) {
		s.cnt.rowsIngested.Add(int64(len(rows)))
	}
}

// timedPost performs one timed request, recording latency and outcome.
// It reports whether the request succeeded with 200.
func (s *user) timedPost(ctx context.Context, class, path string, body any, out any) bool {
	s.buf.Reset()
	if err := json.NewEncoder(&s.buf).Encode(body); err != nil {
		s.cnt.fail(class, err)
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.cfg.BaseURL+path, &s.buf)
	if err != nil {
		s.cnt.fail(class, err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.cfg.Client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		s.cnt.fail(class, err)
		return false
	}
	defer resp.Body.Close()
	s.cnt.hists[class].Observe(elapsed)
	s.cnt.counts[class].Add(1)
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			s.cnt.shed.Add(1)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		s.cnt.fail(class, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, msg))
		return false
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			s.cnt.fail(class, err)
			return false
		}
	}
	io.Copy(io.Discard, resp.Body)
	return true
}

// healthzExecutor is the /healthz slice the driver reads.
type healthzExecutor struct {
	Executor struct {
		QueriesExecuted int64 `json:"queries_executed"`
	} `json:"executor"`
}

// serverSnapshot reads the target table's row count and the server's
// cumulative queries_executed.
func serverSnapshot(ctx context.Context, cfg Config, table string) (rows int, queries int64, err error) {
	var health healthzExecutor
	if err := getJSON(ctx, cfg.Client, cfg.BaseURL+"/healthz", &health); err != nil {
		return 0, 0, fmt.Errorf("load: server unreachable: %w", err)
	}
	var tables []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := getJSON(ctx, cfg.Client, cfg.BaseURL+"/api/tables", &tables); err != nil {
		return 0, 0, err
	}
	for _, t := range tables {
		if t.Name == table {
			return t.Rows, health.Executor.QueriesExecuted, nil
		}
	}
	return 0, 0, fmt.Errorf("load: table %q not loaded on %s (PushSpec first)", table, cfg.BaseURL)
}

// getJSON fetches one JSON document.
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// PushSpec loads cfg.Spec into the target server via
// POST /api/datasets/synth (generation streams server-side, so a
// million-row load ships a ~1 KB spec, not a CSV). A table that already
// exists under the spec's name is left untouched.
func PushSpec(ctx context.Context, cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return err
	}
	var tables []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := getJSON(ctx, cfg.Client, cfg.BaseURL+"/api/tables", &tables); err != nil {
		return fmt.Errorf("load: server unreachable: %w", err)
	}
	for _, t := range tables {
		if t.Name == cfg.Spec.Name {
			return nil
		}
	}
	body, err := json.Marshal(map[string]any{"spec": cfg.Spec})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/api/datasets/synth", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		return fmt.Errorf("load: pushing spec: status %d: %s", resp.StatusCode, msg)
	}
	return nil
}
