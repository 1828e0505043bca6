// Package shardbe implements the shard router: a backend.Backend that
// holds a fact table partitioned row-wise across N child backends and
// answers queries by fanning them out and merging decomposed partial
// aggregation states (internal/sqldb's ShardPlan).
//
// The router is "just another Backend" on the seam PR 3 built — the
// engine above it runs unchanged — which is exactly the middleware
// scale-out story of the SeeDB paper's architecture: partition the work
// across executors, share nothing, merge cheap partial states. Today the
// children are embedded sqldb stores in one process; any conforming
// Backend works, because the router only speaks SQL and the Backend
// interface to them.
//
// Contract highlights:
//
//   - Global row space. The router presents the concatenation of its
//     children's row spaces, in child order: child 0's rows first, then
//     child 1's, and so on. A phased-execution range [lo, hi) maps onto
//     at most one contiguous local range per child. ScatterTable loads
//     contiguous blocks, so the global order equals the original
//     insertion order and every result — group first-seen order
//     included — is bit-identical to an unsharded embedded execution on
//     exactly-summable data (see the float caveat in
//     sqldb/shardexec.go). Rows streamed in with AppendRow go
//     round-robin, which keeps results deterministic and aggregates
//     correct but permutes the global order, so phased pruning may make
//     different (equally valid) decisions than an unsharded run.
//
//   - Capabilities are the intersection of the children's: the router
//     can only honor a row range if every child can. Degradation then
//     happens in the engine exactly as for any other backend
//     (core.EffectiveStrategy) and is recorded in Metrics.
//
//   - TableInfo's Version is a version vector: the concatenation of
//     every child's token, taken from the child infos the same call
//     reads. Any child-level load, append or drop changes the vector,
//     so the shared result cache invalidates without the router
//     tracking writes itself.
//
//   - One request, one table state. Under a pin (backend.WithPin, which
//     the engine opens once per Recommend) the per-child row counts the
//     request's TableInfo read are kept, and every later call on that
//     context — each Exec's range mapping, TableStats — reuses them
//     instead of asking the children again. Each child then scans at
//     most its pinned count, so appends that land mid-request stay
//     invisible to it.
//
//   - TableStats merges child statistics exactly: row counts add, and
//     per-column distinct counts are the size of the union of per-child
//     distinct value sets (collected with one GROUP BY query per column
//     per child, memoized per version vector). Summing per-child
//     distinct counts would overcount values present on several shards.
//
//   - Complete-or-error, unless the call opts into degraded results
//     through its context (backend.WithAllowPartial — the one channel
//     that reaches Exec and the option-less introspection calls alike).
//     Then an unavailable child (hard failure or open breaker) is
//     skipped, the merge proceeds over the surviving shards, and the
//     omission is stamped into ExecStats.ShardsDegraded/DegradedShards.
package shardbe

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seedb/internal/backend"
	"seedb/internal/resilience"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// Options configures a Router.
type Options struct {
	// Telemetry, when non-nil, observes every child execution's latency
	// in the collector's shard-latency histogram — per-child partials,
	// which is what turns "the straggler max" into a distribution.
	Telemetry *telemetry.Collector
	// Hedge configures straggler hedging (off by default): child
	// executions outliving the hedge delay get a speculative duplicate,
	// first answer wins, loser is cancelled. See hedge.go.
	Hedge HedgeOptions
	// Breakers, when non-nil, arms one circuit breaker per child with
	// these options: a child whose executions keep failing with
	// unavailability is opened (fail-fast, no hammering) until a
	// half-open probe succeeds. Nil disables breakers (the default).
	Breakers *resilience.BreakerOptions
}

// Router is the shard-routing backend. It is safe for concurrent use
// when its children are.
type Router struct {
	children []backend.Backend
	tel      *telemetry.Collector
	hedge    HedgeOptions
	// hedgeLat tracks winning child-execution latencies for the adaptive
	// hedge delay (router-internal, independent of Options.Telemetry).
	hedgeLat *telemetry.Histogram
	// breakers holds one circuit breaker per child, nil when disabled.
	breakers []*resilience.Breaker

	mu        sync.Mutex
	statsMemo map[string]statsEntry // table (lowercased) → memoized stats
}

// statsEntry memoizes one table's merged statistics under the version
// vector they were computed at.
type statsEntry struct {
	version string
	stats   *backend.TableStats
}

// New creates a router over the given children (at least one).
func New(children []backend.Backend, opts Options) (*Router, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("shardbe: need at least one child backend")
	}
	r := &Router{
		children:  append([]backend.Backend(nil), children...),
		tel:       opts.Telemetry,
		hedge:     opts.Hedge,
		hedgeLat:  &telemetry.Histogram{},
		statsMemo: make(map[string]statsEntry),
	}
	if opts.Breakers != nil {
		r.breakers = make([]*resilience.Breaker, len(children))
		for i := range r.breakers {
			r.breakers[i] = resilience.NewBreaker(*opts.Breakers)
		}
	}
	return r, nil
}

// BreakerStats snapshots the per-child circuit breakers, in child
// order. Nil when breakers are disabled. The server's /metrics and
// /healthz endpoints export these.
func (r *Router) BreakerStats() []resilience.BreakerStats {
	if r.breakers == nil {
		return nil
	}
	out := make([]resilience.BreakerStats, len(r.breakers))
	for i, b := range r.breakers {
		out[i] = b.Snapshot()
	}
	return out
}

// breakerFor returns child i's breaker, nil when breakers are off.
func (r *Router) breakerFor(i int) *resilience.Breaker {
	if r.breakers == nil {
		return nil
	}
	return r.breakers[i]
}

// tolerable reports whether a child failure may be skipped instead of
// failing the call: the call opted into degraded results, the failure is
// shaped like an outage, and the request itself is still live.
func tolerable(ctx context.Context, err error) bool {
	return errors.Is(err, backend.ErrUnavailable) && backend.AllowPartialFrom(ctx) && ctx.Err() == nil
}

// childDown reports whether child i should be treated as unavailable
// right now without touching it: its breaker is open and still inside
// the cooldown. Introspection paths use it; Exec consumes Allow.
func (r *Router) childDown(i int) bool {
	b := r.breakerFor(i)
	return b != nil && !b.Ready()
}

// Name identifies the router. Routers over different child sets may
// share a result cache under this one name: the child version tokens
// embed process-unique store ids.
func (r *Router) Name() string { return "shard" }

// Capabilities is the intersection of the children's capabilities: a
// shared optimization the router cannot guarantee on every shard is not
// offered at all, and the engine degrades exactly as documented for any
// single backend.
func (r *Router) Capabilities() backend.Capabilities {
	caps := backend.Capabilities{SupportsPhasedExecution: true}
	for _, c := range r.children {
		caps.SupportsPhasedExecution = caps.SupportsPhasedExecution && c.Capabilities().SupportsPhasedExecution
	}
	return caps
}

// childState is what one read of the children found: every child's
// TableInfo (a down child's carries the shared schema and zero rows, so
// consumers can index infos uniformly) and which children are down.
type childState struct {
	infos []backend.TableInfo
	down  []bool
}

// pinKey names one router's child state for one table in a request's
// pin; a nested router pins its own under its own key.
type pinKey struct {
	r     *Router
	table string
}

// state returns the children's state for table: the read the request's
// pin holds when ctx carries one, else a fresh read.
func (r *Router) state(ctx context.Context, table string) (childState, error) {
	return backend.Pinned(ctx, pinKey{r, strings.ToLower(table)}, func() (childState, error) {
		return r.childInfos(ctx, table)
	})
}

// childInfos fetches every child's TableInfo and checks the shards agree
// on the schema. A table absent from every child is ErrNoTable; a table
// present on only some children is a partitioning inconsistency, which
// is an error distinct from "no such table".
//
// Under the degraded-results opt-in a child that is unavailable — open
// breaker, or a TableInfo failure shaped like an outage — is marked down
// instead of failing the call. A down child reports zero rows, so the
// router's global row space becomes exactly the concatenation of the
// surviving shards (which is what makes a degraded result equal an
// unsharded run over the survivors' rows). At least one child must
// survive; an all-down table is ErrUnavailable, never a silent empty
// result.
func (r *Router) childInfos(ctx context.Context, table string) (childState, error) {
	infos := make([]backend.TableInfo, len(r.children))
	down := make([]bool, len(r.children))
	missing, alive := 0, 0
	for i, c := range r.children {
		if r.childDown(i) {
			if !backend.AllowPartialFrom(ctx) {
				return childState{}, fmt.Errorf("shardbe: shard %d: %w: circuit open", i, backend.ErrUnavailable)
			}
			down[i] = true
			continue
		}
		ti, err := c.TableInfo(ctx, table)
		switch {
		case errors.Is(err, backend.ErrNoTable):
			missing++
		case tolerable(ctx, err):
			// Introspection outages feed the breaker too, so a dead
			// child opens even when no Exec reaches it.
			if b := r.breakerFor(i); b != nil && b.Allow() {
				b.RecordFailure()
			}
			down[i] = true
		case err != nil:
			return childState{}, fmt.Errorf("shardbe: shard %d: %w", i, err)
		default:
			infos[i] = ti
			alive++
		}
	}
	if alive == 0 {
		if missing == len(r.children) {
			return childState{}, fmt.Errorf("%w: %q", backend.ErrNoTable, table)
		}
		return childState{}, fmt.Errorf("shardbe: table %q: %w: all %d shards down", table, backend.ErrUnavailable, len(r.children))
	}
	if missing > 0 {
		return childState{}, fmt.Errorf("shardbe: table %q exists on only %d of %d reachable shards", table, alive, alive+missing)
	}
	// Schema agreement is checked among the survivors only.
	first := -1
	for i := range infos {
		if down[i] {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		if err := sameColumns(infos[first].Columns, infos[i].Columns); err != nil {
			return childState{}, fmt.Errorf("shardbe: table %q: shard %d schema disagrees with shard %d: %w", table, i, first, err)
		}
	}
	for i := range infos {
		if down[i] {
			infos[i] = backend.TableInfo{Name: infos[first].Name, Columns: infos[first].Columns, Layout: infos[first].Layout}
		}
	}
	return childState{infos, down}, nil
}

// sameColumns checks two shards declare identical columns.
func sameColumns(a, b []backend.Column) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d columns vs %d", len(a), len(b))
	}
	for i := range a {
		if !strings.EqualFold(a[i].Name, b[i].Name) || a[i].Type != b[i].Type {
			return fmt.Errorf("column %d is %s %v vs %s %v", i, a[i].Name, a[i].Type, b[i].Name, b[i].Type)
		}
	}
	return nil
}

// TableInfo merges the children's descriptions: identical schema, summed
// row counts, the shared layout (the conservative row layout when shards
// disagree), and the version vector of the child tokens.
func (r *Router) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	st, err := r.state(ctx, table)
	if err != nil {
		return backend.TableInfo{}, err
	}
	out := st.infos[0]
	for _, ti := range st.infos[1:] {
		out.Rows += ti.Rows
		if ti.Layout != out.Layout {
			out.Layout = backend.LayoutRow
		}
	}
	out.Version = versionVector(st.infos)
	return out, nil
}

// versionVector joins the child tokens in child order behind the child
// count. A child without a token — a down one included — leaves the
// table unversioned.
func versionVector(infos []backend.TableInfo) string {
	parts := []string{fmt.Sprintf("n%d", len(infos))}
	for _, ti := range infos {
		if ti.Version == "" {
			return ""
		}
		parts = append(parts, ti.Version)
	}
	return strings.Join(parts, "|")
}

// TableVersion is TableInfo's Version.
func (r *Router) TableVersion(ctx context.Context, table string) (string, bool) {
	return backend.VersionOf(r.TableInfo(ctx, table))
}

// TableStats merges per-shard statistics: rows add, distinct counts come
// from the union of per-child distinct value sets so values living on
// several shards count once. The union is collected with one GROUP BY
// query per column per child, over the child state TableInfo reads, and
// memoized under its version vector.
func (r *Router) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	st, err := r.state(ctx, table)
	if err != nil {
		return nil, err
	}
	version := versionVector(st.infos)
	key := strings.ToLower(table)
	if version != "" {
		r.mu.Lock()
		if e, ok := r.statsMemo[key]; ok && e.version == version {
			r.mu.Unlock()
			return e.stats, nil
		}
		r.mu.Unlock()
	}

	rows := 0
	for _, ti := range st.infos {
		rows += ti.Rows
	}
	out := &backend.TableStats{Rows: rows, Columns: make([]backend.ColumnStats, len(st.infos[0].Columns))}
	statsDegraded := false
	for ci, col := range st.infos[0].Columns {
		distinct, degraded, err := r.distinctCount(ctx, table, col.Name, st)
		if err != nil {
			return nil, err
		}
		statsDegraded = statsDegraded || degraded
		out.Columns[ci] = backend.ColumnStats{Name: col.Name, Type: col.Type, Distinct: distinct}
	}

	// Stats computed while a shard was down describe the survivors, not
	// the table: never memoize them, or they would outlive the outage
	// (the version vector need not change when a child recovers).
	if version != "" && !statsDegraded {
		r.mu.Lock()
		r.statsMemo[key] = statsEntry{version: version, stats: out}
		r.mu.Unlock()
	}
	return out, nil
}

// distinctCount unions one column's distinct non-NULL values across
// shards, keyed by the embedded engine's injective value encoding so the
// count is exact (bit-level float identity included). Each child scans
// the rows st pins, as Exec would. Under the degraded-results opt-in,
// unavailable shards are skipped (the stats then describe the
// survivors, matching what a degraded Exec will scan) and the second
// return reports the omission.
func (r *Router) distinctCount(ctx context.Context, table, column string, st childState) (int, bool, error) {
	col := &sqldb.ColumnExpr{Name: column}
	stmt := &sqldb.SelectStmt{
		Items:   []sqldb.SelectItem{{Expr: col}},
		Table:   table,
		GroupBy: []sqldb.Expr{col},
		Limit:   -1,
	}
	sql := stmt.String()
	seen := make(map[string]struct{})
	var keyBuf []byte
	degraded := slices.Contains(st.down, true)
	for _, t := range r.childTasks(st.infos, 0, 0) {
		i := t.child
		if backend.AllowPartialFrom(ctx) && r.childDown(i) {
			degraded = true
			continue
		}
		rows, _, err := r.childExec(ctx, i, sql, backend.ExecOptions{Lo: t.lo, Hi: t.hi})
		if tolerable(ctx, err) {
			degraded = true
			continue
		}
		if err != nil {
			return 0, false, fmt.Errorf("shardbe: distinct scan on shard %d: %w", i, err)
		}
		for _, row := range rows.Rows {
			if len(row) != 1 || row[0].IsNull() {
				continue
			}
			keyBuf = row[0].AppendKey(keyBuf[:0])
			seen[string(keyBuf)] = struct{}{}
		}
	}
	return len(seen), degraded, nil
}

// childTask is one planned child execution.
type childTask struct {
	child  int
	lo, hi int // local range; 0,0 means "full child table" (unranged children only)
}

// childRun is one partial's outcome: the winning attempt's result plus
// how it was obtained (hedged, hedge won).
type childRun struct {
	rows  *backend.Rows
	stats backend.ExecStats
	lat   time.Duration
	err   error
	// hedged marks that a speculative duplicate was issued for this
	// partial; hedgeWon that the duplicate answered first.
	hedged   bool
	hedgeWon bool
	// degraded marks a partial skipped in degraded-results mode: the
	// child was unavailable, the merge proceeds without it, and the
	// omission is stamped into the fan-out's ExecStats.
	degraded bool
}

// Exec fans one query out to the children and merges the partial
// results. The query is decomposed by sqldb.NewShardPlan: aggregates
// travel as mergeable partial states (AVG as SUM+COUNT, COUNT(DISTINCT)
// as value sets), and HAVING/ORDER BY/DISTINCT/LIMIT apply after the
// merge. Every planned child runs concurrently; the first child error
// cancels the remaining executions.
func (r *Router) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	sp, st, err := r.plan(ctx, query)
	if err != nil {
		return nil, backend.ExecStats{}, err
	}
	// Children skipped at planning time — open breaker or introspection
	// outage — never become tasks, but a traced tree must still account
	// for every shard.
	for i, d := range st.down {
		if d {
			skipSpan(ctx, i, r.childDown(i))
		}
	}
	tasks := r.childTasks(st.infos, opts.Lo, opts.Hi)
	runs := r.fanout(ctx, tasks, sp.ChildSQL(), opts.Workers)
	if err := firstFailure(tasks, runs); err != nil {
		return nil, backend.ExecStats{}, err
	}
	stats := foldStats(tasks, runs, st.down)
	if stats.ShardFanout == 0 && len(stats.DegradedShards) == len(r.children) {
		// Every child in the router is gone: that is an outage, not a
		// degraded result. A row range that only touches down children
		// while healthy children survive elsewhere stays degraded — the
		// partial contract is "the result over surviving partitions",
		// and the surviving partitions hold no rows in that range.
		return nil, backend.ExecStats{}, fmt.Errorf("shardbe: %w: all %d shards unavailable", backend.ErrUnavailable, len(r.children))
	}

	// A degraded partial merges as zero rows: the global result is then
	// exactly what an unsharded store holding only the surviving
	// partitions' rows would produce.
	parts := make([]sqldb.ShardPart, len(tasks))
	for ti, run := range runs {
		if !run.degraded {
			parts[ti] = sqldb.ShardPart{Rows: run.rows.Rows, Groups: run.stats.Groups}
		}
	}
	_, msp := telemetry.StartSpan(ctx, "shard.merge")
	merged, err := sp.Merge(parts)
	msp.End()
	if err != nil {
		return nil, backend.ExecStats{}, err
	}
	stats.Groups = merged.Stats.Groups
	return &backend.Rows{Columns: merged.Columns, Rows: merged.Rows}, stats, nil
}

// plan parses the query, takes the children's state (the request's
// pinned one, or a fresh read marking the down children) and decomposes
// the query into the statement every child runs and the merge that
// combines their partials.
func (r *Router) plan(ctx context.Context, query string) (*sqldb.ShardPlan, childState, error) {
	_, psp := telemetry.StartSpan(ctx, "shard.plan")
	defer psp.End()
	stmt, err := sqldb.Parse(query)
	if err != nil {
		return nil, childState{}, err
	}
	st, err := r.state(ctx, stmt.Table)
	if err != nil {
		return nil, childState{}, err
	}
	schema, err := sqldb.NewSchema(st.infos[0].Columns...)
	if err != nil {
		return nil, childState{}, err
	}
	sp, err := sqldb.NewShardPlan(stmt, schema)
	return sp, st, err
}

// childTasks maps the global row range [lo, hi) (hi <= 0: to the end)
// onto per-child contiguous local ranges: the global space is the
// concatenation of the children's row counts in infos, in child order.
// Every child's range ends at or before its count, so a child never
// scans rows appended after infos was read. Only when some child lacks
// row-range support does a full-table request pass the "whole table"
// form through instead, so those children still serve it.
func (r *Router) childTasks(infos []backend.TableInfo, lo, hi int) []childTask {
	total := 0
	for _, ti := range infos {
		total += ti.Rows
	}
	if hi <= 0 {
		hi = total
	}
	lo = clamp(lo, 0, total)
	hi = clamp(hi, lo, total)
	whole := lo == 0 && hi == total && !r.Capabilities().SupportsPhasedExecution

	var tasks []childTask
	off := 0
	for i, ti := range infos {
		cLo := clamp(lo-off, 0, ti.Rows)
		cHi := clamp(hi-off, 0, ti.Rows)
		off += ti.Rows
		if cHi <= cLo {
			continue // this shard holds no rows of the requested range
		}
		t := childTask{child: i, lo: cLo, hi: cHi}
		if whole {
			t.lo, t.hi = 0, 0
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// fanout runs every task concurrently — one goroutine per planned
// child; child-side scan parallelism multiplies on top — and waits for
// all of them. The first failure cancels the rest.
func (r *Router) fanout(ctx context.Context, tasks []childTask, sql string, workers int) []childRun {
	runs := make([]childRun, len(tasks))
	if len(tasks) == 0 {
		return runs
	}
	fanCtx, fsp := telemetry.StartSpan(ctx, "shard.fanout")
	fsp.SetAttr("children", strconv.Itoa(len(tasks)))
	defer fsp.End()
	fanCtx, cancel := context.WithCancel(fanCtx)
	defer cancel()

	var wg sync.WaitGroup
	for ti, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := r.runChild(ctx, fanCtx, t, sql, backend.ExecOptions{Lo: t.lo, Hi: t.hi, Workers: workers})
			runs[ti] = run
			if run.err != nil {
				cancel() // first failure aborts the straggling shards
			} else if !run.degraded {
				// Only real executions belong in the latency
				// distribution.
				r.tel.ObserveShard(run.lat)
			}
		}()
	}
	wg.Wait()
	return runs
}

// runChild runs one task of a fan-out. An open circuit fails fast
// without touching the child; otherwise execChild runs it and the
// outcome feeds the child's breaker. A failure the call tolerates
// becomes a degraded partial instead of failing the fan-out.
func (r *Router) runChild(ctx, fanCtx context.Context, t childTask, sql string, opts backend.ExecOptions) childRun {
	var run childRun
	if br := r.breakerFor(t.child); br != nil && !br.Allow() {
		skipSpan(fanCtx, t.child, true)
		run.err = fmt.Errorf("%w: circuit open", backend.ErrUnavailable)
	} else {
		run = r.execChild(fanCtx, t, sql, opts)
		recordHealth(ctx, br, run.err)
	}
	if tolerable(ctx, run.err) {
		return childRun{degraded: true}
	}
	return run
}

// recordHealth feeds one execution's outcome to the child's breaker
// (nil when breakers are off). A child is "failing" only when it looks
// down — unreachable or timing out while the request itself is still
// live. The caller's own cancellation, and child-side errors like a
// parse rejection, say nothing bad about child health.
func recordHealth(ctx context.Context, br *resilience.Breaker, err error) {
	switch {
	case br == nil:
	case err == nil:
		br.RecordSuccess()
	case (errors.Is(err, backend.ErrUnavailable) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil:
		br.RecordFailure()
	case !isCtxErr(err):
		// The child answered, just not usefully (parse rejection,
		// unknown column): it is alive.
		br.RecordSuccess()
	default:
		// Cancellation with the parent request dead or dying: no health
		// signal either way.
		br.RecordCancel()
	}
}

// attempt is the one way a fan-out executes a child: a partial's
// primary and its hedged duplicate alike. It opens the attempt's
// shard.exec span, runs the child with a panic contained as a failed
// attempt, stamps the outcome on the span and times the call.
func (r *Router) attempt(ctx context.Context, t childTask, sql string, opts backend.ExecOptions, hedged bool) childRun {
	cctx, sp := telemetry.StartSpan(ctx, "shard.exec")
	sp.SetAttr("shard", strconv.Itoa(t.child))
	if hedged {
		sp.SetAttr("hedged", "true")
	}
	start := time.Now()
	rows, stats, err := r.childExec(cctx, t.child, sql, opts)
	run := childRun{rows: rows, stats: stats, lat: time.Since(start), err: err}
	stampChildSpan(sp, stats, err)
	sp.End()
	return run
}

// childExec runs child i's Exec and turns a panic into an error. It is
// the only call of a child's Exec. The fan-out goroutines are beyond
// any recover of the caller's, and the distinct-value scans behind
// TableStats run on a caller that need not have one, so a panicking
// child would otherwise take the process down.
func (r *Router) childExec(ctx context.Context, i int, sql string, opts backend.ExecOptions) (rows *backend.Rows, stats backend.ExecStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			rows, stats, err = nil, backend.ExecStats{}, fmt.Errorf("child panicked: %v", p)
		}
	}()
	return r.children[i].Exec(ctx, sql, opts)
}

// stampChildSpan records one child attempt's outcome on its span:
// resource counters on success (ExecStats.StampSpan, the same stamper
// the engine's query spans use), a status marker on failure. Hedge
// losers cancelled by the winner land here with a context error, so the
// stitched tree shows them as cancelled — ended exactly once, never
// dangling open.
func stampChildSpan(sp *telemetry.Span, stats backend.ExecStats, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		if isCtxErr(err) {
			sp.SetAttr("status", "cancelled")
		} else {
			sp.SetAttr("status", "error")
		}
		return
	}
	stats.StampSpan(sp)
}

// skipSpan leaves a closed, status-marked shard.exec span for a child
// the fan-out did not touch, so a traced tree shows the hole instead of
// silently missing a partition.
func skipSpan(ctx context.Context, child int, circuitOpen bool) {
	_, sp := telemetry.StartSpan(ctx, "shard.exec")
	sp.SetAttr("shard", strconv.Itoa(child))
	sp.SetAttr("status", "skipped")
	if circuitOpen {
		sp.SetAttr("circuit", "open")
	}
	sp.End()
}

// firstFailure reports a failed fan-out's root cause, not a casualty:
// after a first failure cancels the fan-out, innocent shards abort with
// context errors, so an error that is not a cancellation wins when one
// exists.
func firstFailure(tasks []childTask, runs []childRun) error {
	var first error
	child := -1
	for ti, run := range runs {
		if run.err != nil && (first == nil || (isCtxErr(first) && !isCtxErr(run.err))) {
			first, child = run.err, tasks[ti].child
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("shardbe: shard %d: %w", child, first)
}

// foldStats folds a fan-out's partials into the router's ExecStats,
// deciding every field (TestFoldDecidesEveryStat holds it to that):
//
//   - summed through from the children, so the top level sees the whole
//     tree: RowsScanned, SelectionKernels, ResidualPredicates, and the
//     nested robustness counters HedgedPartials, HedgeWins, NetRetries
//     and ShardsDegraded (a netbe child's retries, a nested router's
//     hedges and skipped shards);
//   - Workers is the widest child's. Vectorized holds only when every
//     scanned child ran the fast path; otherwise the first other child's
//     FallbackReason stands in for the whole query (a per-shard
//     breakdown would not fit one ExecStats);
//   - owned by the router: ShardFanout counts its own child executions,
//     ShardStragglerMax is the slowest of them as the router timed it
//     (a nested straggler included), DegradedShards lists its children
//     whose part is missing or incomplete, and Groups comes from the
//     merge (Exec sets it).
//
// A degraded partial executed nothing; it only counts as a skipped shard.
func foldStats(tasks []childTask, runs []childRun, down []bool) backend.ExecStats {
	st := backend.ExecStats{Vectorized: true}
	for i, d := range down {
		if d {
			st.ShardsDegraded++
			st.DegradedShards = append(st.DegradedShards, i)
		}
	}
	for ti, run := range runs {
		if run.degraded {
			st.ShardsDegraded++
			st.DegradedShards = append(st.DegradedShards, tasks[ti].child)
			continue
		}
		c := run.stats
		if c.ShardsDegraded > 0 {
			// A nested router answered over its survivors only.
			st.DegradedShards = append(st.DegradedShards, tasks[ti].child)
		}
		st.ShardsDegraded += c.ShardsDegraded
		st.ShardFanout++
		if run.hedged {
			st.HedgedPartials++
		}
		if run.hedgeWon {
			st.HedgeWins++
		}
		st.RowsScanned += c.RowsScanned
		st.SelectionKernels += c.SelectionKernels
		st.ResidualPredicates += c.ResidualPredicates
		st.HedgedPartials += c.HedgedPartials
		st.HedgeWins += c.HedgeWins
		st.NetRetries += c.NetRetries
		st.Workers = max(st.Workers, c.Workers)
		st.ShardStragglerMax = max(st.ShardStragglerMax, run.lat)
		if st.Vectorized && !c.Vectorized {
			st.Vectorized, st.FallbackReason = false, c.FallbackReason
		}
	}
	sort.Ints(st.DegradedShards)
	st.Workers = max(st.Workers, 1)
	if st.ShardFanout == 0 {
		st.Vectorized = false
	}
	if !st.Vectorized && st.FallbackReason == "" {
		st.FallbackReason = "empty shard fan-out"
	}
	return st
}

// isCtxErr reports a context cancellation/deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	return min(max(v, lo), hi)
}
