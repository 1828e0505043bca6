package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/backend"
	"seedb/internal/cache"
	"seedb/internal/distance"
	"seedb/internal/telemetry"
)

// Engine is the SeeDB execution engine: it evaluates the candidate view
// space for a request and returns the k most interesting (highest
// deviation) visualizations. It talks to the store exclusively through
// the backend seam (internal/backend), so the same sharing/pruning
// optimizer runs over the embedded sqldb store or any external SQL
// store, degrading per the backend's declared capabilities.
type Engine struct {
	be  backend.Backend
	gen *ViewGenerator

	cacheMu sync.Mutex
	cache   *cache.Cache

	// tel is the optional telemetry collector: latency histograms and
	// the slow-query log. Atomic so it can be installed while requests
	// are in flight; a nil collector makes every observation a no-op.
	tel atomic.Pointer[telemetry.Collector]
}

// NewEngine creates an engine over a backend. Wrap the embedded store
// with backend.NewEmbedded.
func NewEngine(be backend.Backend) *Engine {
	return &Engine{be: be, gen: NewViewGenerator(be)}
}

// Backend returns the backend the engine executes against.
func (e *Engine) Backend() backend.Backend { return e.be }

// Generator returns the engine's view generator.
func (e *Engine) Generator() *ViewGenerator { return e.gen }

// SetCache installs a shared result cache; its byte budget is fixed
// when the cache is constructed. One cache may back many engines (and
// the HTTP server installs one process-wide cache); it is only consulted
// by requests with Options.EnableCache set. An engine with nothing
// installed creates a default-budget cache on its first such request.
func (e *Engine) SetCache(c *cache.Cache) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	e.cache = c
}

// Cache returns the engine's cache, or nil if none is installed yet.
func (e *Engine) Cache() *cache.Cache {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.cache
}

// SetTelemetry installs a telemetry collector: Recommend then observes
// request latency, every paid query execution observes exec latency,
// and operations over the slow-log threshold are written to the
// collector's slow-query log. One collector may back many engines (the
// HTTP server shares one process-wide). A nil collector disables
// observation again.
func (e *Engine) SetTelemetry(tel *telemetry.Collector) { e.tel.Store(tel) }

// Telemetry returns the installed collector, or nil.
func (e *Engine) Telemetry() *telemetry.Collector { return e.tel.Load() }

// ensureCache returns the installed cache, creating a default-budget one
// on the first cached request.
func (e *Engine) ensureCache() *cache.Cache {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	if e.cache == nil {
		e.cache = cache.New(cache.DefaultBudgetBytes)
	}
	return e.cache
}

// Metrics reports what one Recommend invocation cost. The counters
// derived from backend executions live in the embedded ExecTotals (its
// fields are promoted, so res.Metrics.QueriesExecuted reads as before);
// the fields declared here describe the request itself.
type Metrics struct {
	ExecTotals
	// Views is the number of candidate views enumerated.
	Views int
	// ServedStale marks a response replayed from the result cache under
	// Options.ServeStaleOnError after the backend became unavailable:
	// the data may predate the current dataset version.
	ServedStale bool
	// PhasesRun counts executed phases (1 for non-phased strategies).
	PhasesRun int
	// PrunedViews counts views discarded before full processing.
	PrunedViews int
	// EarlyStopped reports whether COMB_EARLY returned before scanning
	// everything.
	EarlyStopped bool
	// CacheHits and CacheMisses count result-cache lookups (whole-request
	// and per-query) made on behalf of this invocation. A query served
	// from the cache counts as a hit and does not appear in
	// QueriesExecuted or RowsScanned.
	CacheHits   int
	CacheMisses int
	// ServedFromCache marks an invocation answered entirely by the
	// result cache (a whole-request hit, or a concurrent duplicate that
	// shared another request's execution).
	ServedFromCache bool
	// StrategyDegraded reports that the requested strategy could not run
	// on this backend and was rewritten by EffectiveStrategy (COMB and
	// COMB_EARLY degrade to SHARING on backends without row-range scans
	// — including a shard router whose capability intersection lost
	// SupportsPhasedExecution). DegradedFrom names the strategy the
	// caller asked for; the executed one is what Options carried after
	// the rewrite. Recorded on warm (cached) responses too: degradation
	// describes the request-backend pair, not one execution.
	StrategyDegraded bool
	DegradedFrom     string
	// Elapsed is wall-clock execution time.
	Elapsed time.Duration
}

// Recommendation is one scored view with its distributions, ready to
// render as a bar chart.
type Recommendation struct {
	View View
	// Utility is the deviation-based utility estimate. For pruned views
	// it reflects only the data processed before pruning.
	Utility float64
	// Groups is the shared group axis (sorted union of target and
	// reference groups).
	Groups []string
	// Target and Reference are the normalized probability distributions
	// over Groups.
	Target, Reference []float64
	// TargetAgg and ReferenceAgg are the raw (unnormalized) aggregate
	// values per group.
	TargetAgg, ReferenceAgg map[string]float64
	// Partial marks estimates computed from a strict subset of the data
	// (early-returned or pruned views).
	Partial bool
}

// Result is the output of one Recommend invocation.
type Result struct {
	// Recommendations holds the top-k views, highest utility first.
	Recommendations []Recommendation
	// AllViews holds every enumerated view's final state (only when
	// Options.KeepAllViews is set), in utility order.
	AllViews []Recommendation
	// Metrics reports execution cost.
	Metrics Metrics
	// encoded is the whole-request cache entry's slot for its one
	// encoding of Recommendations (see EncodedRecommendations). Every
	// copy of the entry shares it; nil on a result never cached.
	encoded *encodedRecs
}

// execState carries one invocation's working state.
type execState struct {
	be      backend.Backend
	req     Request
	opts    Options
	views   []View
	accums  []*viewAccum
	alive   []bool
	partial []bool // per-view: estimate computed from a strict data subset
	metrics Metrics

	// mergeMu serializes folding query results into the accumulators and
	// metrics: each pool worker merges its own result as soon as it
	// arrives. rowOrds is mergeResult's per-row scratch; scratch is the
	// scorers' (scoring runs only between phases, when no worker runs).
	mergeMu sync.Mutex
	rowOrds []int32
	scratch scoreScratch

	// Shared result-cache state (nil/empty when caching is off).
	cache   *cache.Cache
	version string // dataset version token the whole run is keyed under

	// tel observes per-query execution latency and feeds the slow-query
	// log; nil when the engine has no collector.
	tel *telemetry.Collector
}

// Recommend evaluates the view space for req and returns the top-k
// recommendations under the configured options.
//
// The strategy actually executed may degrade per the backend's
// capabilities — see EffectiveStrategy — so COMB/COMB_EARLY requests
// against a backend without row-range scans run as single-pass SHARING.
//
// With Options.EnableCache set, the whole invocation is memoized in the
// engine's shared cache under the request's canonical key and the
// table's dataset version: repeat requests return without issuing any
// SQL, and concurrent identical requests collapse into one execution
// (singleflight). Cold requests still reuse cached shared-query results
// where they overlap earlier work. The cache never changes which query
// computes a view's reference side: it is always the query that computes
// its target side (or that query's reference twin).
func (e *Engine) Recommend(ctx context.Context, req Request, opts Options) (*Result, error) {
	start := time.Now()
	ctx, sp := telemetry.StartSpan(ctx, "recommend")
	sp.SetAttr("table", req.Table)
	res, err := e.recommend(ctx, req, opts)
	sp.End()
	elapsed := time.Since(start)
	tel := e.tel.Load()
	tel.ObserveRequest(elapsed)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	sp.SetAttr("queries", strconv.Itoa(res.Metrics.QueriesExecuted))
	if res.Metrics.ServedFromCache {
		sp.SetAttr("served_from_cache", "true")
	}
	if sp != nil {
		// Per-request cost rollup: the root of the recommend subtree
		// answers "where did the rows go" without walking every query
		// span. Zero-valued shard/net counters stay off leaf-backend
		// traces.
		m := res.Metrics
		sp.SetAttr("rows_scanned", strconv.FormatInt(m.RowsScanned, 10))
		sp.SetAttr("cache_hits", strconv.Itoa(m.CacheHits))
		sp.SetAttr("cache_misses", strconv.Itoa(m.CacheMisses))
		if m.ShardFanout > 0 {
			sp.SetAttr("shard_fanout", strconv.Itoa(m.ShardFanout))
		}
		if m.NetRetries > 0 {
			sp.SetAttr("net_retries", strconv.Itoa(m.NetRetries))
		}
	}
	if sl := tel.Slow(); sl != nil {
		thr := opts.SlowQueryThreshold
		if thr <= 0 {
			thr = sl.Threshold()
		}
		if elapsed >= thr {
			sl.Log(telemetry.SlowEntry{
				Kind:        "request",
				Table:       req.Table,
				Strategy:    opts.Strategy.String(),
				Queries:     res.Metrics.QueriesExecuted,
				ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
				ThresholdMS: float64(thr) / float64(time.Millisecond),
				TraceID:     sp.TraceID(),
				Trace:       sp.Node(),
			})
		}
	}
	return res, nil
}

// recommend wraps recommendInner with the stale-on-outage path
// (Options.ServeStaleOnError): an unavailability failure is answered
// with the last complete result the cache still holds for this request
// shape, at whatever dataset version it was computed.
func (e *Engine) recommend(ctx context.Context, req Request, opts Options) (*Result, error) {
	if opts.AllowPartial {
		// The context is the one channel that carries the opt-in to
		// routing backends, for Exec and introspection alike.
		ctx = backend.WithAllowPartial(ctx)
	}
	start := time.Now()
	res, err := e.recommendInner(ctx, req, opts)
	if err != nil && opts.ServeStaleOnError && opts.EnableCache &&
		errors.Is(err, backend.ErrUnavailable) && ctx.Err() == nil {
		if sres, ok := e.staleResult(req, opts); ok {
			telemetry.SpanFromContext(ctx).SetAttr("served_stale", "true")
			sres.Metrics.Elapsed = time.Since(start)
			return sres, nil
		}
	}
	return res, err
}

// staleResult follows the request shape's stale alias to the versioned
// entry it names. Either lookup may miss — nothing complete was ever
// computed for the shape, or the LRU has since evicted it — and then
// the outage propagates.
func (e *Engine) staleResult(req Request, opts Options) (*Result, bool) {
	c := e.Cache()
	if c == nil {
		return nil, false
	}
	alias, ok := c.Get(staleCacheKey(e.be.Name(), req, opts))
	if !ok {
		return nil, false
	}
	v, ok := c.Get(alias.(string))
	if !ok {
		return nil, false
	}
	res := cloneResult(v.(*Result))
	res.Metrics.resetInvocationCost()
	res.Metrics.ServedStale = true
	stampDegradation(res, opts.Strategy, EffectiveStrategy(opts.Strategy, e.be.Capabilities()))
	return res, true
}

// stampDegradation records on a result whether the requested strategy
// was rewritten for this backend. The rewrite happens before cache-key
// construction (a degraded COMB request shares the equivalent SHARING
// request's entry), so replayed responses are stamped per caller rather
// than trusting whatever request computed the cached value.
func stampDegradation(res *Result, requested, executed Strategy) {
	res.Metrics.StrategyDegraded = executed != requested
	res.Metrics.DegradedFrom = ""
	if executed != requested {
		res.Metrics.DegradedFrom = requested.String()
	}
}

// resetInvocationCost zeroes the counters that report what one
// invocation executed, keeping the fields that describe the result's
// content (Views, PrunedViews, EarlyStopped): a response replayed from
// the cache, warm or stale, cost its caller nothing. Cached results are
// complete and fresh by construction (degraded ones are never
// admitted), so the degradation counters inside ExecTotals reset too.
func (m *Metrics) resetInvocationCost() {
	m.ExecTotals = ExecTotals{}
	m.PhasesRun, m.ServedStale = 0, false
	m.CacheHits, m.CacheMisses = 0, 0
	m.ServedFromCache = false
}

// recommendInner is the Recommend body; the exported wrapper owns the
// request span, latency observation and slow-request logging, and the
// recommend wrapper owns stale-on-outage serving.
func (e *Engine) recommendInner(ctx context.Context, req Request, opts Options) (*Result, error) {
	start := time.Now()
	// The stale alias is keyed on the options as the caller wrote them:
	// canonicalization below needs table metadata, which is exactly what
	// an outage takes away.
	rawOpts := opts
	if req.TargetWhere == "" {
		return nil, fmt.Errorf("core: request needs a target predicate (TargetWhere)")
	}
	if req.Reference == RefCustom && req.ReferenceWhere == "" {
		return nil, fmt.Errorf("core: RefCustom requires ReferenceWhere")
	}
	// One TableInfo read pins the request: its Version is the cache
	// token and its Rows bound every Exec on a backend that can bound
	// its scans, so the whole request reads the table state the token
	// names. The pin on ctx keeps whatever per-request state a routing
	// backend read alongside (its per-child row counts) for every later
	// call. Without a token, cached entries could never be invalidated —
	// the request is treated as uncacheable rather than risk serving
	// stale results forever.
	unpinned := ctx
	ctx = backend.WithPin(ctx)
	_, tsp := telemetry.StartSpan(ctx, "table_info")
	meta, err := e.gen.fetchMeta(ctx, req.Table)
	tsp.End()
	if err != nil {
		return nil, err
	}
	// The token is namespaced by the backend's name, so two backends
	// holding coincidentally same-named tables can share one cache
	// without ever sharing entries.
	version := e.be.Name() + "|" + meta.info.Version
	versioned := opts.EnableCache && meta.info.Version != ""
	_, vsp := telemetry.StartSpan(ctx, "view_enum")
	views, err := e.gen.views(ctx, req, meta)
	vsp.SetAttr("views", strconv.Itoa(len(views)))
	vsp.End()
	if err != nil {
		return nil, err
	}
	caps := e.be.Capabilities()
	requested := opts.Strategy
	opts.Strategy = EffectiveStrategy(opts.Strategy, caps)
	if opts.Strategy == NoOpt || opts.Strategy == Sharing {
		// Pruning options are inert on single-pass plans (the pruner
		// never runs); canonicalize them before defaulting and cache-key
		// construction so equivalent requests — including a COMB request
		// degraded to SHARING — share one cache entry.
		opts.Pruning = NoPruning
		opts.Phases = 0
		opts.Delta = 0
		opts.ConfidenceScale = 0
		opts.Seed = 0
	}
	if opts.Strategy == NoOpt {
		// The unoptimized baseline scans with one worker per query (and
		// runs one query at a time, see runQueries). Pinning the knob
		// here, before cache-key construction, keeps two equivalent
		// NO_OPT requests identical everywhere downstream.
		opts.ScanParallelism = 1
	}
	opts = opts.withDefaults(meta.info.Layout, len(views))
	telemetry.SpanFromContext(ctx).SetAttr("strategy", opts.Strategy.String())
	if opts.K > len(views) {
		opts.K = len(views)
	}

	if !versioned {
		res, err := e.runRecommend(ctx, req, opts, views, meta, nil, "")
		if err != nil {
			return nil, err
		}
		stampDegradation(res, requested, opts.Strategy)
		res.Metrics.Elapsed = time.Since(start)
		return res, nil
	}

	c := e.ensureCache()
	key := requestCacheKey(req, opts, version)
	// admitted records that the leader's result is consistent with its
	// key. The size callback runs on the computing caller's goroutine,
	// before Do returns to it.
	admitted := false
	v, outcome, err := c.Do(ctx, key,
		func(v any) int64 {
			n := resultSizeBytes(v.(*Result))
			if !caps.SupportsPhasedExecution {
				// A backend that cannot bound its scans read whatever
				// the table held at each Exec. If the token moved, so
				// did the data under the computation, and the result
				// matches no version's key. The re-read goes past the
				// request's pin.
				now, err := e.be.TableInfo(unpinned, req.Table)
				if err != nil || e.be.Name()+"|"+now.Version != version {
					n = -1
				}
			}
			admitted = n >= 0
			return n
		},
		func(cctx context.Context) (any, error) {
			res, err := e.runRecommend(cctx, req, opts, views, meta, c, version)
			if err != nil {
				return nil, err
			}
			res.encoded = &encodedRecs{recs: res.Recommendations}
			return res, nil
		},
	)
	if err != nil {
		return nil, err
	}
	// The cached Result is shared; every caller (the computing one
	// included, since its Result now lives in the cache) gets a private
	// deep copy.
	res := cloneResult(v.(*Result))
	if outcome != cache.Computed {
		// Warm path: report what THIS invocation cost.
		res.Metrics.resetInvocationCost()
		res.Metrics.CacheHits = 1
		res.Metrics.ServedFromCache = true
	} else if admitted {
		// Point this request shape's outage fallback at the entry just
		// filled. Written by every complete computation, whether or not
		// it asked for stale serving, so the alias keeps up with the
		// data even when the opted-in requests themselves only hit.
		c.Put(staleCacheKey(e.be.Name(), req, rawOpts), key, int64(2*len(key)), 0)
	}
	stampDegradation(res, requested, opts.Strategy)
	res.Metrics.Elapsed = time.Since(start)
	return res, nil
}

// runRecommend executes one cold recommendation. With a non-nil cache it
// consults the shared-query memoization inside runQueries.
func (e *Engine) runRecommend(ctx context.Context, req Request, opts Options, views []View, meta *tableMeta, c *cache.Cache, version string) (*Result, error) {
	start := time.Now()
	st := &execState{
		be:      e.be,
		req:     req,
		opts:    opts,
		views:   views,
		cache:   c,
		version: version,
		tel:     e.tel.Load(),
	}
	st.metrics.Views = len(views)
	var dims []string
	st.accums, dims = newAccums(views)
	st.alive = slices.Repeat([]bool{true}, len(views))

	qb := &queryBuilder{table: req.Table, req: req, opts: opts}
	if opts.GroupBy == GroupByBinPack && opts.Strategy != NoOpt {
		_, ssp := telemetry.StartSpan(ctx, "stats")
		cards, err := e.gen.cardinalities(ctx, req.Table, dims, meta)
		ssp.End()
		if err != nil {
			return nil, err
		}
		qb.distinct = make(map[string]int, len(dims))
		for i, d := range dims {
			qb.distinct[d] = cards[i]
		}
	}

	ectx, esp := telemetry.StartSpan(ctx, "execute")
	var err error
	switch opts.Strategy {
	case NoOpt, Sharing:
		// Every Exec scans at most the pinned rows, so an empty pinned
		// table has nothing to scan. A backend that cannot bound its
		// scans gets Hi 0, "to the end", instead.
		switch {
		case !e.be.Capabilities().SupportsPhasedExecution:
			err = st.runSinglePass(ectx, qb, 0)
		case meta.info.Rows > 0:
			err = st.runSinglePass(ectx, qb, meta.info.Rows)
		}
	case Comb, CombEarly:
		err = st.runPhased(ectx, qb, meta.info.Rows)
	default:
		err = fmt.Errorf("core: unknown strategy %v", opts.Strategy)
	}
	esp.End()
	if err != nil {
		return nil, err
	}

	_, csp := telemetry.StartSpan(ctx, "score")
	res := st.buildResult()
	csp.End()
	res.Metrics.Elapsed = time.Since(start)
	return res, nil
}

// runSinglePass executes NO_OPT or SHARING: one full pass over rows
// [0, hi), or over the whole table when hi is 0.
func (st *execState) runSinglePass(ctx context.Context, qb *queryBuilder, hi int) error {
	queries := qb.build(st.views, st.alive)
	st.metrics.PhasesRun = 1
	return st.runQueries(ctx, queries, 0, hi)
}

// runPhased executes COMB / COMB_EARLY: the phased execution framework of
// Section 3. Phase i processes the i-th of n equal partitions for the
// views still alive, then the pruner discards low-utility views.
func (st *execState) runPhased(ctx context.Context, qb *queryBuilder, totalRows int) error {
	phases := st.opts.Phases
	if phases > totalRows && totalRows > 0 {
		phases = totalRows
	}
	if phases < 1 {
		phases = 1
	}
	p := newPruner(st.opts)
	ps := &phaseState{
		estimates: make([]float64, len(st.views)),
		alive:     st.alive,
		accepted:  make([]bool, len(st.views)),
		totalRows: totalRows,
		k:         st.opts.K,
	}

	for phase := 0; phase < phases; phase++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := phase * totalRows / phases
		hi := (phase + 1) * totalRows / phases
		if hi <= lo {
			continue
		}
		// Rebuild queries for the views still alive so pruned views
		// stop consuming scan and aggregation work.
		queries := qb.build(st.views, st.alive)
		pctx, psp := telemetry.StartSpan(ctx, "phase")
		psp.SetAttr("phase", strconv.Itoa(phase))
		psp.SetAttr("rows", fmt.Sprintf("%d..%d", lo, hi))
		err := st.runQueries(pctx, queries, lo, hi)
		psp.End()
		if err != nil {
			return err
		}
		st.metrics.PhasesRun++
		ps.rowsSeen = hi

		for i := range st.views {
			if st.alive[i] {
				ps.estimates[i] = st.accums[i].utility(st.opts.Distance, &st.scratch)
			}
		}
		p.prune(ps)

		if st.opts.Strategy == CombEarly && p.decided(ps) {
			if hi < totalRows {
				st.metrics.EarlyStopped = true
			}
			break
		}
	}

	// A view's estimate is partial when it stopped being scanned before
	// the data ran out: pruned, bandit-accepted mid-run, or the whole
	// run returned early.
	st.partial = make([]bool, len(st.views))
	for i := range st.views {
		st.partial[i] = !st.alive[i] || st.metrics.EarlyStopped
	}
	// Views the bandit accepted count as winners, not as pruned.
	for i := range st.views {
		if ps.accepted[i] {
			st.alive[i] = true
		}
	}
	for _, a := range st.alive {
		if !a {
			st.metrics.PrunedViews++
		}
	}
	return nil
}

// buildResult ranks views and materializes recommendations.
func (st *execState) buildResult() *Result {
	type scored struct {
		idx     int
		utility float64
	}
	ranked := make([]scored, 0, len(st.views))
	var pruned []scored
	for i := range st.views {
		u := st.accums[i].utility(st.opts.Distance, &st.scratch)
		if st.alive[i] {
			ranked = append(ranked, scored{i, u})
		} else {
			pruned = append(pruned, scored{i, u})
		}
	}
	byUtility := func(s []scored) func(a, b int) bool {
		return func(a, b int) bool {
			if s[a].utility != s[b].utility {
				return s[a].utility > s[b].utility
			}
			return s[a].idx < s[b].idx
		}
	}
	sort.Slice(ranked, byUtility(ranked))
	sort.Slice(pruned, byUtility(pruned))

	res := &Result{Metrics: st.metrics}

	emit := func(s scored) Recommendation {
		rec := st.accums[s.idx].recommendation(&st.scratch)
		rec.Utility = s.utility
		// Surviving views of a full run saw every partition and are
		// exact; pruned, bandit-accepted and early-returned views are
		// partial (st.partial is nil for single-pass strategies, which
		// are always exact).
		rec.Partial = st.partial != nil && st.partial[s.idx]
		return rec
	}

	k := st.opts.K
	for _, s := range ranked {
		if len(res.Recommendations) >= k {
			break
		}
		res.Recommendations = append(res.Recommendations, emit(s))
	}
	// If pruning overshot (fewer than k survivors), backfill from the
	// best pruned estimates.
	for _, s := range pruned {
		if len(res.Recommendations) >= k {
			break
		}
		res.Recommendations = append(res.Recommendations, emit(s))
	}

	if st.opts.KeepAllViews {
		all := append(append([]scored(nil), ranked...), pruned...)
		sort.Slice(all, byUtility(all))
		res.AllViews = make([]Recommendation, 0, len(all))
		for _, s := range all {
			res.AllViews = append(res.AllViews, emit(s))
		}
	}
	return res
}

// ExactTopK computes ground-truth utilities for every view of a request
// with the SHARING strategy and no pruning — the oracle the evaluation
// metrics compare against.
func (e *Engine) ExactTopK(ctx context.Context, req Request, dist distance.Func, k int) (*Result, error) {
	return e.Recommend(ctx, req, Options{
		Strategy:     Sharing,
		Pruning:      NoPruning,
		Distance:     dist,
		K:            k,
		KeepAllViews: true,
	})
}
