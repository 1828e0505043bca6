package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"seedb/internal/backend"
	"seedb/internal/binpack"
	"seedb/internal/telemetry"
)

// accumRole identifies how one aggregate output column folds into a view
// accumulator cell.
type accumRole uint8

const (
	roleSum accumRole = iota
	roleCount
	roleMin
	roleMax
)

// rolesFor returns the aggregate SQL expressions a view's aggregate
// function needs, with the accumulator role each one feeds. Partial
// results must merge across phases and across the sub-groups of a
// multi-attribute GROUP BY, so AVG decomposes into SUM+COUNT, and
// SUM/COUNT also carry COUNT to track group presence.
func rolesFor(f AggFunc, measure string) []roleExpr {
	switch f {
	case AggAvg:
		return []roleExpr{
			{role: roleSum, expr: fmt.Sprintf("SUM(%s)", measure)},
			{role: roleCount, expr: fmt.Sprintf("COUNT(%s)", measure)},
		}
	case AggSum:
		return []roleExpr{
			{role: roleSum, expr: fmt.Sprintf("SUM(%s)", measure)},
			{role: roleCount, expr: fmt.Sprintf("COUNT(%s)", measure)},
		}
	case AggCount:
		return []roleExpr{
			{role: roleCount, expr: fmt.Sprintf("COUNT(%s)", measure)},
		}
	case AggMin:
		return []roleExpr{
			{role: roleMin, expr: fmt.Sprintf("MIN(%s)", measure)},
		}
	case AggMax:
		return []roleExpr{
			{role: roleMax, expr: fmt.Sprintf("MAX(%s)", measure)},
		}
	default:
		return nil
	}
}

// roleExpr pairs an aggregate SQL expression with the role it feeds.
type roleExpr struct {
	role accumRole
	expr string
}

// consumer routes one aggregate output column of a shared query into one
// view's accumulator.
type consumer struct {
	viewIdx int       // index into the engine's view list
	dimPos  int       // which group-by column holds this view's dimension
	col     int       // which aggregate output column to read
	role    accumRole // how to fold it
}

// querySide tells the executor which accumulator side(s) a concrete query
// execution feeds.
type querySide uint8

const (
	// sideCombined: the query carries a target-flag group column; rows
	// route by flag (and reference mode).
	sideCombined querySide = iota
	// sideTarget: a WHERE-target query feeding only target accumulators.
	sideTarget
	// sideReference: a reference query feeding only reference
	// accumulators.
	sideReference
)

// sharedQuery is one executable SQL query serving one or more views.
type sharedQuery struct {
	sql       string
	numDims   int
	side      querySide
	consumers []consumer
}

// flagColumn is the alias of the injected target/reference flag.
const flagColumn = "__seedb_flag"

// viewGroup is a set of views evaluated by one family of shared queries:
// they share the group-by dimension list.
type viewGroup struct {
	dims     []string
	viewIdxs []int
}

// queryBuilder turns view groups into shared queries according to the
// sharing options.
type queryBuilder struct {
	table    string
	req      Request
	opts     Options
	distinct map[string]int // dimension → distinct count
}

// partitionViews builds the view groups for the configured group-by
// strategy over the alive views. NoOpt gets one group per view
// (no sharing at all).
func (qb *queryBuilder) partitionViews(views []View, alive []bool) []viewGroup {
	if qb.opts.Strategy == NoOpt {
		var groups []viewGroup
		for i, v := range views {
			if alive[i] {
				groups = append(groups, viewGroup{dims: []string{v.Dimension}, viewIdxs: []int{i}})
			}
		}
		return groups
	}

	// Collect distinct dimensions of alive views, in first-use order.
	var dims []string
	seen := make(map[string]bool)
	byDim := make(map[string][]int)
	for i, v := range views {
		if !alive[i] {
			continue
		}
		if !seen[v.Dimension] {
			seen[v.Dimension] = true
			dims = append(dims, v.Dimension)
		}
		byDim[v.Dimension] = append(byDim[v.Dimension], i)
	}

	var dimGroups [][]string
	switch qb.opts.GroupBy {
	case GroupByBinPack:
		counts := make([]int, len(dims))
		for i, d := range dims {
			counts[i] = qb.distinct[d]
			if counts[i] < 1 {
				counts[i] = 1
			}
		}
		budget := qb.opts.MemoryBudget
		if qb.req.Reference != RefCustom {
			// The flag column doubles the worst-case group count.
			budget /= 2
			if budget < 1 {
				budget = 1
			}
		}
		for _, bin := range binpack.PackAttributes(counts, budget) {
			g := make([]string, len(bin))
			for j, idx := range bin {
				g[j] = dims[idx]
			}
			dimGroups = append(dimGroups, g)
		}
	case GroupByMaxN:
		n := qb.opts.MaxGroupBy
		for i := 0; i < len(dims); i += n {
			end := i + n
			if end > len(dims) {
				end = len(dims)
			}
			dimGroups = append(dimGroups, dims[i:end])
		}
	default: // GroupBySingle
		for _, d := range dims {
			dimGroups = append(dimGroups, []string{d})
		}
	}

	groups := make([]viewGroup, 0, len(dimGroups))
	for _, g := range dimGroups {
		var idxs []int
		for _, d := range g {
			idxs = append(idxs, byDim[d]...)
		}
		sort.Ints(idxs)
		groups = append(groups, viewGroup{dims: g, viewIdxs: idxs})
	}
	return groups
}

// build compiles the alive views into concrete shared queries.
func (qb *queryBuilder) build(views []View, alive []bool) []*sharedQuery {
	var queries []*sharedQuery
	for _, vg := range qb.partitionViews(views, alive) {
		queries = append(queries, qb.buildGroup(views, vg)...)
	}
	return queries
}

// buildGroup emits the queries for one view group, applying the
// multiple-aggregates combining (with the nagg cap) and the combined
// target/reference rewrite.
func (qb *queryBuilder) buildGroup(views []View, vg viewGroup) []*sharedQuery {
	dimPos := make(map[string]int, len(vg.dims))
	for i, d := range vg.dims {
		dimPos[d] = i
	}

	// Chunk the group's views by measure so one query aggregates at
	// most nagg measures ("Combine Multiple Aggregates", Figure 7a).
	type chunkT struct {
		measures []string
		viewIdxs []int
	}
	nagg := qb.opts.MaxAggregatesPerQuery
	var chunks []chunkT
	measureChunk := make(map[string]int) // measure → chunk index
	for _, vi := range vg.viewIdxs {
		m := views[vi].Measure
		ci, ok := measureChunk[m]
		if !ok {
			// Place the measure in the last chunk with room, else open
			// a new chunk.
			ci = -1
			if len(chunks) > 0 {
				last := len(chunks) - 1
				if nagg <= 0 || len(chunks[last].measures) < nagg {
					ci = last
				}
			}
			if ci < 0 {
				chunks = append(chunks, chunkT{})
				ci = len(chunks) - 1
			}
			chunks[ci].measures = append(chunks[ci].measures, m)
			measureChunk[m] = ci
		}
		chunks[ci].viewIdxs = append(chunks[ci].viewIdxs, vi)
	}

	// NO_OPT is the unoptimized baseline: it never combines target and
	// reference into one query (2 × f × a × m queries, Section 3).
	combined := qb.opts.Strategy != NoOpt && qb.req.Reference != RefCustom

	var queries []*sharedQuery
	for _, ch := range chunks {
		exprs, consumers := qb.aggPlan(views, ch.viewIdxs, dimPos)
		if combined {
			queries = append(queries, &sharedQuery{
				sql:       qb.renderSQL(vg.dims, exprs, "", true),
				numDims:   len(vg.dims),
				side:      sideCombined,
				consumers: consumers,
			})
			continue
		}
		// Separate target and reference executions.
		queries = append(queries, &sharedQuery{
			sql:       qb.renderSQL(vg.dims, exprs, qb.req.TargetWhere, false),
			numDims:   len(vg.dims),
			side:      sideTarget,
			consumers: consumers,
		})
		refWhere := ""
		switch qb.req.Reference {
		case RefComplement:
			// The rows the combined query's flag puts on the reference
			// side: a row whose predicate is NULL is not a target row.
			refWhere = fmt.Sprintf("CASE WHEN %s THEN 1 ELSE 0 END = 0", qb.req.TargetWhere)
		case RefCustom:
			refWhere = qb.req.ReferenceWhere
		}
		queries = append(queries, &sharedQuery{
			sql:       qb.renderSQL(vg.dims, exprs, refWhere, false),
			numDims:   len(vg.dims),
			side:      sideReference,
			consumers: consumers,
		})
	}
	return queries
}

// aggPlan deduplicates the aggregate expressions the given views need
// and routes each output column to its consumers.
func (qb *queryBuilder) aggPlan(views []View, viewIdxs []int, dimPos map[string]int) ([]string, []consumer) {
	var exprs []string
	exprCol := make(map[string]int)
	var consumers []consumer
	for _, vi := range viewIdxs {
		v := views[vi]
		for _, re := range rolesFor(v.Agg, v.Measure) {
			col, ok := exprCol[re.expr]
			if !ok {
				col = len(exprs)
				exprCol[re.expr] = col
				exprs = append(exprs, re.expr)
			}
			consumers = append(consumers, consumer{
				viewIdx: vi,
				dimPos:  dimPos[v.Dimension],
				col:     col,
				role:    re.role,
			})
		}
	}
	return exprs, consumers
}

// renderSQL assembles one view query. With flag=true the target predicate
// becomes a CASE group column (the paper's combined target/reference
// rewrite); otherwise where (possibly empty) filters the scan.
func (qb *queryBuilder) renderSQL(dims, exprs []string, where string, flag bool) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(dims, ", "))
	if flag {
		fmt.Fprintf(&b, ", CASE WHEN %s THEN 1 ELSE 0 END AS %s", qb.req.TargetWhere, flagColumn)
	}
	for _, e := range exprs {
		b.WriteString(", ")
		b.WriteString(e)
	}
	fmt.Fprintf(&b, " FROM %s", qb.table)
	if where != "" {
		fmt.Fprintf(&b, " WHERE %s", where)
	}
	b.WriteString(" GROUP BY ")
	b.WriteString(strings.Join(dims, ", "))
	if flag {
		fmt.Fprintf(&b, ", CASE WHEN %s THEN 1 ELSE 0 END", qb.req.TargetWhere)
	}
	return b.String()
}

// runQueries executes the shared queries over table rows [lo, hi) on a
// worker pool. Each worker folds its query's result into the view
// accumulators as soon as it arrives, under mergeMu. Arrival order does
// not change any float: a view's dimension lies in exactly one group-by
// set and each of its sides in exactly one query per phase, so every cell
// is fed by one query and folds that query's rows in result order.
func (s *execState) runQueries(ctx context.Context, queries []*sharedQuery, lo, hi int) error {
	if len(queries) == 0 {
		return nil
	}
	par := s.opts.Parallelism
	if s.opts.Strategy == NoOpt {
		// The basic framework is the paper's unoptimized baseline: it
		// executes queries one at a time, each with one scan worker
		// (recommendInner pins ScanParallelism).
		par = 1
	}
	if par > len(queries) {
		par = len(queries)
	}
	if par < 1 {
		par = 1
	}

	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range work {
				errs[qi] = s.execAndMerge(ctx, queries[qi], lo, hi)
			}
		}()
	}
	for qi := range queries {
		work <- qi
	}
	close(work)
	wg.Wait()

	for qi, err := range errs {
		if err != nil {
			return fmt.Errorf("core: view query failed: %w (sql: %s)", err, queries[qi].sql)
		}
	}
	return nil
}

// execAndMerge runs one shared query and folds its result and cost into
// the invocation's state. A panic — a misbehaving backend, or rows that
// do not match the query's shape — fails the query, not the process:
// pool workers run outside the HTTP handler goroutine, so the server's
// recovery middleware cannot catch them, and a worker has to survive to
// keep draining the work channel or the feeder would block.
func (s *execState) execAndMerge(ctx context.Context, q *sharedQuery, lo, hi int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: backend panicked: %v", p)
		}
	}()
	rows, stats, err := s.runQuery(ctx, q.sql, lo, hi)
	if err != nil {
		return err
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	// ExecTotals.Add keeps the executed/vectorized/fallback counters in
	// lockstep whatever path the backend took (fast path, runtime
	// fallback, external store).
	s.metrics.Add(stats)
	s.mergeResult(q, rows)
	return nil
}

// runQuery executes one shared query under its query span.
func (s *execState) runQuery(ctx context.Context, sql string, lo, hi int) (*backend.Rows, backend.ExecStats, error) {
	// The degraded-results opt-in reaches routing backends through ctx
	// (backend.WithAllowPartial, set once per request by recommend).
	execOpts := backend.ExecOptions{Lo: lo, Hi: hi, Workers: s.opts.ScanParallelism}
	qctx, qsp := telemetry.StartSpan(ctx, "query")
	defer qsp.End()
	qsp.SetAttr("sql", sql)
	t0 := time.Now()
	rows, stats, err := s.be.Exec(qctx, sql, execOpts)
	d := time.Since(t0)
	if err != nil {
		return nil, stats, err
	}
	// The query span carries the execution's resource counters, so a
	// trace shows where the rows went, not just where the time went.
	stats.StampSpan(qsp)
	s.tel.ObserveQuery(d)
	s.logSlowQuery(sql, lo, hi, d, stats, qsp)
	return rows, stats, nil
}

// logSlowQuery writes one paid execution over the slow threshold to the
// collector's slow-query log; sp contributes the query's span subtree when the
// request is traced (the span is still open here, so its duration reads
// as elapsed-so-far).
func (s *execState) logSlowQuery(sql string, lo, hi int, d time.Duration, stats backend.ExecStats, sp *telemetry.Span) {
	sl := s.tel.Slow()
	if sl == nil {
		return
	}
	thr := sl.Threshold()
	if d < thr {
		return
	}
	sl.Log(telemetry.SlowEntry{
		Kind:           "query",
		Table:          s.req.Table,
		SQL:            sql,
		Lo:             lo,
		Hi:             hi,
		ElapsedMS:      float64(d) / float64(time.Millisecond),
		ThresholdMS:    float64(thr) / float64(time.Millisecond),
		RowsScanned:    int64(stats.RowsScanned),
		Vectorized:     stats.Vectorized,
		FallbackReason: stats.FallbackReason,
		ShardFanout:    stats.ShardFanout,
		TraceID:        sp.TraceID(),
		Trace:          sp.Node(),
	})
}

// mergeResult folds one query result into the accumulators. A view's
// consumers are adjacent (aggPlan emits them view by view) and all read
// the same group, so per result row each group-by column is looked up in
// its dimension's dictionary once and each view's cells are resolved
// once — lazily, on the first value that folds, because only a group
// with a non-NULL value enters the dictionary or grows a side.
func (s *execState) mergeResult(q *sharedQuery, res *backend.Rows) {
	aggBase := q.numDims
	flagPos := -1
	if q.side == sideCombined {
		flagPos = q.numDims
		aggBase = q.numDims + 1
	}
	if cap(s.rowOrds) < q.numDims {
		s.rowOrds = make([]int32, q.numDims)
	}
	ords := s.rowOrds[:q.numDims] // per group-by column; -1 until looked up
	for _, row := range res.Rows {
		// toTarget/toRef: which side(s) this row's values fold into.
		// Combined rows route by flag; the reference side takes every row
		// under RefAll (D_R = D) and only non-target rows otherwise.
		toTarget, toRef := q.side == sideTarget, q.side == sideReference
		if q.side == sideCombined {
			toTarget = row[flagPos].Truthy()
			toRef = s.req.Reference == RefAll || !toTarget
		}
		for i := range ords {
			ords[i] = -1
		}
		view := -1
		var target, ref *cell
		for _, c := range q.consumers {
			v := row[aggBase+c.col]
			if v.IsNull() {
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				continue
			}
			if c.viewIdx != view {
				acc := s.accums[c.viewIdx]
				view, target, ref = c.viewIdx, nil, nil
				if ords[c.dimPos] < 0 {
					ords[c.dimPos] = acc.groups.ordinal(row[c.dimPos])
				}
				if toTarget {
					target = acc.target.at(ords[c.dimPos])
				}
				if toRef {
					ref = acc.reference.at(ords[c.dimPos])
				}
			}
			if target != nil {
				fold(target, c.role, f)
			}
			if ref != nil {
				fold(ref, c.role, f)
			}
		}
	}
}
