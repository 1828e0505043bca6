package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seedb/internal/backend"
	"seedb/internal/binpack"
	"seedb/internal/sqldb"
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
// view's accumulator. Columns are positions in the query's result row.
type consumer struct {
	viewIdx int       // index into the engine's view list
	dimCol  int       // which column holds this view's dimension value
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

// sharedQuery is one executable SQL statement serving one or more views:
// one SELECT, or (GroupByUnion) SELECTs joined by UNION ALL whose rows
// lead with their branch index.
type sharedQuery struct {
	sql      string
	union    bool
	width    int // result row width
	branches []queryBranch
}

// queryBranch is one SELECT of a shared query: which accumulator side(s)
// its rows feed, and the consumers of its columns.
type queryBranch struct {
	side      querySide
	flagCol   int   // the target flag's column (sideCombined only)
	dimCols   []int // the columns consumers read dimension values from
	consumers []consumer
}

// aggCol is one aggregate column of a branch: the role it feeds and, for
// a SUM, the column of its measure's COUNT, which says whether a partial
// summed any value.
type aggCol struct {
	col, cnt int
	role     accumRole
}

// aggCols lists the branch's aggregate columns once each. A SUM's COUNT
// is its view's COUNT consumer: rolesFor gives every view that sums its
// measure's COUNT too.
func (br *queryBranch) aggCols() []aggCol {
	var aggs []aggCol
	for _, c := range br.consumers {
		if slices.ContainsFunc(aggs, func(a aggCol) bool { return a.col == c.col }) {
			continue
		}
		a := aggCol{col: c.col, cnt: -1, role: c.role}
		if c.role == roleSum {
			i := slices.IndexFunc(br.consumers, func(d consumer) bool { return d.viewIdx == c.viewIdx && d.role == roleCount })
			a.cnt = br.consumers[i].col
		}
		aggs = append(aggs, a)
	}
	return aggs
}

// branchOf returns the branch a result row of q belongs to, from a row
// check accepted. In a UNION ALL statement the leading branch index is
// the only thing that tells another branch's placeholder NULL apart
// from a real NULL group.
func (q *sharedQuery) branchOf(row []sqldb.Value) *queryBranch {
	return &q.branches[q.branchIndex(row)]
}

// branchIndex is branchOf's index into q.branches.
func (q *sharedQuery) branchIndex(row []sqldb.Value) int {
	if !q.union {
		return 0
	}
	return int(row[0].I)
}

// check validates a result against q's shape before any row folds: the
// row width and, in a UNION ALL statement, an integer branch index in
// range. An external store's rows come from outside the program, and a
// bad index would fold one branch's values into another's views.
func (q *sharedQuery) check(rows [][]sqldb.Value) error {
	for _, row := range rows {
		if len(row) != q.width {
			return fmt.Errorf("core: result row has %d columns, want %d", len(row), q.width)
		}
		if q.union && (row[0].Kind != sqldb.KindInt || row[0].I < 0 || row[0].I >= int64(len(q.branches))) {
			return fmt.Errorf("core: result row has branch index %v, want an integer in 0..%d", row[0], len(q.branches)-1)
		}
	}
	return nil
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
	// types holds the table's column types (GroupByUnion's key columns:
	// dimensions of one type share one).
	types map[string]backend.ColumnType
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
	default: // GroupBySingle, and GroupByUnion's one dimension per branch
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
	if qb.opts.GroupBy == GroupByUnion && qb.opts.Strategy != NoOpt {
		return qb.buildUnion(views, alive)
	}
	var queries []*sharedQuery
	for _, vg := range qb.partitionViews(views, alive) {
		dimCols := make([]int, len(vg.dims))
		dimCol := make(map[string]int, len(vg.dims))
		for i, d := range vg.dims {
			dimCols[i], dimCol[d] = i, i
		}
		sides := qb.sides()
		aggBase := len(vg.dims)
		if sides[0].flag {
			aggBase++
		}
		for _, idxs := range qb.chunkViews(views, vg.viewIdxs) {
			exprs, consumers := qb.aggPlan(views, idxs, dimCol, aggBase)
			for _, sd := range sides {
				queries = append(queries, &sharedQuery{
					sql:      qb.selectSQL("", vg.dims, vg.dims, exprs, len(exprs), sd),
					width:    aggBase + len(exprs),
					branches: []queryBranch{{side: sd.side, flagCol: len(vg.dims), dimCols: dimCols, consumers: consumers}},
				})
			}
		}
	}
	return queries
}

// buildUnion compiles the alive views into UNION ALL statements, one per
// MaxAggregatesPerQuery chunk (one in all when it is unlimited). The
// c-th statement has a branch for the c-th measure chunk of every
// dimension that has one, or two — target and reference — when the
// sides are not combined. Its columns are the branch index, one key
// column per dimension type, a typed NULL (typedNull) in the branches
// of other types' dimensions, then the flag, and each branch's own
// aggregates, padded with numeric typed NULLs to the widest branch. A
// typed SQL store resolves a UNION ALL column's type from its branches
// pairwise, so every column has one type in every branch and no
// branch holds an untyped NULL.
func (qb *queryBuilder) buildUnion(views []View, alive []bool) []*sharedQuery {
	groups := qb.partitionViews(views, alive)
	chunks := make([][][]int, len(groups))
	statements := 0
	for gi, vg := range groups {
		chunks[gi] = qb.chunkViews(views, vg.viewIdxs)
		statements = max(statements, len(chunks[gi]))
	}
	sides := qb.sides()
	var queries []*sharedQuery
	for c := 0; c < statements; c++ {
		var dims []string
		var idxs [][]int
		for gi, vg := range groups {
			if c < len(chunks[gi]) {
				dims = append(dims, vg.dims[0])
				idxs = append(idxs, chunks[gi][c])
			}
		}
		keyCol, keyTypes := qb.keyColumns(dims)
		numKeys := len(keyTypes)
		flagCol := 1 + numKeys
		aggBase := flagCol
		if sides[0].flag {
			aggBase++
		}
		exprs := make([][]string, len(dims))
		consumers := make([][]consumer, len(dims))
		width := 0
		for k, d := range dims {
			exprs[k], consumers[k] = qb.aggPlan(views, idxs[k], map[string]int{d: 1 + keyCol[k]}, aggBase)
			width = max(width, len(exprs[k]))
		}
		q := &sharedQuery{union: true, width: aggBase + width}
		var sqls []string
		for k, d := range dims {
			keys := make([]string, numKeys)
			for i, t := range keyTypes {
				keys[i] = typedNull(t)
			}
			keys[keyCol[k]] = d
			for _, sd := range sides {
				lead := strconv.Itoa(len(q.branches))
				sqls = append(sqls, qb.selectSQL(lead, keys, []string{d}, exprs[k], width, sd))
				q.branches = append(q.branches, queryBranch{side: sd.side, flagCol: flagCol, dimCols: []int{1 + keyCol[k]}, consumers: consumers[k]})
			}
		}
		q.sql = strings.Join(sqls, " UNION ALL ")
		queries = append(queries, q)
	}
	return queries
}

// keyColumns assigns each dimension of a UNION ALL statement its key
// column: one per column type, in first-use order.
func (qb *queryBuilder) keyColumns(dims []string) (keyCol []int, keyTypes []backend.ColumnType) {
	keyCol = make([]int, len(dims))
	for k, d := range dims {
		col := slices.Index(keyTypes, qb.types[d])
		if col < 0 {
			col = len(keyTypes)
			keyTypes = append(keyTypes, qb.types[d])
		}
		keyCol[k] = col
	}
	return keyCol, keyTypes
}

// typedNull renders a NULL of the given column type: a CASE whose only
// arm is a literal of that type and never taken. A bare NULL has no
// type, and a typed store resolving a UNION ALL would type a column
// whose first branches hold one as text.
func typedNull(t backend.ColumnType) string {
	lit := "0"
	switch t {
	case backend.TypeFloat:
		lit = "0.0"
	case backend.TypeString:
		lit = "''"
	case backend.TypeBool:
		lit = "FALSE"
	}
	return "CASE WHEN FALSE THEN " + lit + " END"
}

// chunkViews splits a view group's views by measure so one query
// aggregates at most nagg measures ("Combine Multiple Aggregates",
// Figure 7a), keeping the views' order within each chunk.
func (qb *queryBuilder) chunkViews(views []View, viewIdxs []int) [][]int {
	nagg := qb.opts.MaxAggregatesPerQuery
	var chunks [][]int
	var measures []int                   // per chunk, how many measures it holds
	measureChunk := make(map[string]int) // measure → chunk index
	for _, vi := range viewIdxs {
		m := views[vi].Measure
		ci, ok := measureChunk[m]
		if !ok {
			// Place the measure in the last chunk with room, else open
			// a new chunk.
			ci = len(chunks) - 1
			if ci < 0 || (nagg > 0 && measures[ci] >= nagg) {
				chunks, measures = append(chunks, nil), append(measures, 0)
				ci = len(chunks) - 1
			}
			measures[ci]++
			measureChunk[m] = ci
		}
		chunks[ci] = append(chunks[ci], vi)
	}
	return chunks
}

// sideSpec is one execution of a view group's scan: the side its rows
// feed, its WHERE (possibly empty) and whether it carries the flag.
type sideSpec struct {
	side  querySide
	where string
	flag  bool
}

// sides returns how a view group's scan splits into executions: one
// combined target/reference scan with the flag (the paper's rewrite),
// or — under NO_OPT, which never combines (2 × f × a × m queries,
// Section 3), and for a custom reference — a target scan and a
// reference scan.
func (qb *queryBuilder) sides() []sideSpec {
	if qb.opts.Strategy != NoOpt && qb.req.Reference != RefCustom {
		return []sideSpec{{side: sideCombined, flag: true}}
	}
	refWhere := ""
	switch qb.req.Reference {
	case RefComplement:
		// The rows the combined query's flag puts on the reference
		// side: a row whose predicate is NULL is not a target row.
		refWhere = fmt.Sprintf("CASE WHEN %s THEN 1 ELSE 0 END = 0", qb.req.TargetWhere)
	case RefCustom:
		refWhere = qb.req.ReferenceWhere
	}
	return []sideSpec{{side: sideTarget, where: qb.req.TargetWhere}, {side: sideReference, where: refWhere}}
}

// aggPlan deduplicates the aggregate expressions the given views need
// and routes each output column to its consumers: the expressions are
// result columns aggBase on, and dimCol places each view's dimension.
func (qb *queryBuilder) aggPlan(views []View, viewIdxs []int, dimCol map[string]int, aggBase int) ([]string, []consumer) {
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
				dimCol:  dimCol[v.Dimension],
				col:     aggBase + col,
				role:    re.role,
			})
		}
	}
	return exprs, consumers
}

// selectSQL renders one view query: lead (a UNION ALL branch index, ""
// for none), the key columns, with sd.flag the target predicate as a
// CASE group column (the paper's combined target/reference rewrite),
// the aggregates padded with numeric typed NULLs to width columns (every
// aggregate SeeDB asks for is numeric), then sd.where
// (possibly empty) filtering the scan and the GROUP BY.
func (qb *queryBuilder) selectSQL(lead string, keys, groupBy, exprs []string, width int, sd sideSpec) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if lead != "" {
		b.WriteString(lead)
		b.WriteString(", ")
	}
	b.WriteString(strings.Join(keys, ", "))
	if sd.flag {
		fmt.Fprintf(&b, ", CASE WHEN %s THEN 1 ELSE 0 END AS %s", qb.req.TargetWhere, flagColumn)
	}
	for _, e := range exprs {
		b.WriteString(", ")
		b.WriteString(e)
	}
	for range width - len(exprs) {
		b.WriteString(", ")
		b.WriteString(typedNull(backend.TypeInt))
	}
	fmt.Fprintf(&b, " FROM %s", qb.table)
	if sd.where != "" {
		fmt.Fprintf(&b, " WHERE %s", sd.where)
	}
	b.WriteString(" GROUP BY ")
	b.WriteString(strings.Join(groupBy, ", "))
	if sd.flag {
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
	res, stats, err := s.runQuery(ctx, q.sql, lo, hi)
	if err != nil {
		return err
	}
	if err := q.check(res.Rows); err != nil {
		return err
	}
	rows := res.Rows
	if len(res.Parts) > 1 {
		// Partitions' partial rows: merge them first, outside the lock,
		// and count the merged groups as a merging store would.
		rows = q.foldParts(res)
		stats.Groups = len(rows)
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
	// (backend.WithAllowPartial, set once per request by recommend), and
	// so does the decomposable mark: every statement the builder renders
	// holds only SUM, COUNT, MIN and MAX of columns next to key columns,
	// the CASE flag and typed-NULL pads, so a router's children run it as
	// written and foldParts merges their partials.
	execOpts := backend.ExecOptions{Lo: lo, Hi: hi, Workers: s.opts.ScanParallelism}
	qctx, qsp := telemetry.StartSpan(backend.WithDecomposable(ctx, s.req.Table), "query")
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

// mergeResult folds one query result into the accumulators. Each row
// folds through its branch's consumers. A view's consumers are adjacent
// (aggPlan emits them view by view) and all read the same group, so per
// result row each dimension column is looked up in its dimension's
// dictionary once and each view's cells are resolved once — lazily, on
// the first value that folds, because only a group with a non-NULL value
// enters the dictionary or grows a side.
func (s *execState) mergeResult(q *sharedQuery, rows [][]sqldb.Value) {
	for _, row := range rows {
		br := q.branchOf(row)
		// toTarget/toRef: which side(s) this row's values fold into.
		// Combined rows route by flag; the reference side takes every row
		// under RefAll (D_R = D) and only non-target rows otherwise.
		toTarget, toRef := br.side == sideTarget, br.side == sideReference
		if br.side == sideCombined {
			toTarget = row[br.flagCol].Truthy()
			toRef = s.req.Reference == RefAll || !toTarget
		}
		if cap(s.rowOrds) < len(row) {
			s.rowOrds = make([]int32, len(row))
		}
		ords := s.rowOrds[:len(row)] // per dimension column; -1 until looked up
		for _, c := range br.dimCols {
			ords[c] = -1
		}
		view := -1
		var target, ref *cell
		for _, c := range br.consumers {
			v := row[c.col]
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
				if ords[c.dimCol] < 0 {
					ords[c.dimCol] = acc.groups.ordinal(row[c.dimCol])
				}
				if toTarget {
					target = acc.target.at(ords[c.dimCol])
				}
				if toRef {
					ref = acc.reference.at(ords[c.dimCol])
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

// foldParts merges a result of several parts — row partitions' partial
// rows, partitions in row order (backend.Rows.Parts) — into one row per
// group, as the shard router's merge (sqldb.ShardPlan.Merge) does: a
// group is a (branch, key columns, flag) tuple under
// sqldb.Value.AppendKey identity, in first-seen order with the parts
// read in order, and each aggregate column folds its partials in part
// order from a zero state. A COUNT adds its partials. A SUM adds its
// non-NULL partials to +0 and is NULL when those partials' COUNTs add
// to 0. A MIN or MAX keeps the first non-NULL extreme by Value.Compare.
// The merged rows then fold into the cells as one result. A cell takes
// rows of one branch only, and within a branch the merge's group order
// is this one (it only concatenates branches), so every cell adds the
// same values in the same order as when the router merged, and results
// keep their bits.
func (q *sharedQuery) foldParts(res *backend.Rows) [][]sqldb.Value {
	aggs := make([][]aggCol, len(q.branches))
	for b := range q.branches {
		aggs[b] = q.branches[b].aggCols()
	}
	// One slab holds every group's row, q.width values each. A SUM
	// column carries its running count in I until it is finalized.
	w := q.width
	var slab []sqldb.Value
	ids := make(map[string]int, len(res.Rows)/len(res.Parts)+1)
	var key []byte
	for _, row := range res.Rows {
		b := q.branchIndex(row)
		key = key[:0]
		if q.union {
			key = row[0].AppendKey(key)
		}
		br := &q.branches[b]
		for _, c := range br.dimCols {
			key = row[c].AppendKey(key)
		}
		if br.side == sideCombined {
			key = row[br.flagCol].AppendKey(key)
		}
		g, ok := ids[string(key)]
		if !ok {
			g = len(ids)
			ids[string(key)] = g
			slab = append(slab, row...)
			for _, a := range aggs[b] {
				slab[g*w+a.col] = partialZero[a.role]
			}
		}
		for _, a := range aggs[b] {
			foldPartial(&slab[g*w+a.col], row, a)
		}
	}
	out := make([][]sqldb.Value, len(ids))
	for g := range out {
		m := slab[g*w : (g+1)*w : (g+1)*w]
		for _, a := range aggs[q.branchIndex(m)] {
			if a.role == roleSum {
				if m[a.col].I == 0 {
					m[a.col] = sqldb.Null()
				} else {
					m[a.col] = sqldb.Float(m[a.col].F)
				}
			}
		}
		out[g] = m
	}
	return out
}

// partialZero is each role's merged state before its first partial: a
// count of 0, a SUM of +0 that counted nothing, and NULL for MIN and MAX
// (no extreme yet).
var partialZero = [...]sqldb.Value{roleSum: sqldb.Float(0), roleCount: sqldb.Int(0), roleMin: sqldb.Null(), roleMax: sqldb.Null()}

// foldPartial folds one partial row's value of column a into a merged
// group's state st (see foldParts).
func foldPartial(st *sqldb.Value, row []sqldb.Value, a aggCol) {
	v := row[a.col]
	switch a.role {
	case roleCount:
		if n, ok := v.AsInt(); ok {
			st.I += n
		}
	case roleSum:
		f, ok := v.AsFloat()
		if v.IsNull() || !ok {
			return
		}
		n, _ := row[a.cnt].AsInt()
		st.F += f
		st.I += n
	case roleMin:
		if !v.IsNull() && (st.IsNull() || v.Compare(*st) < 0) {
			*st = v
		}
	case roleMax:
		if !v.IsNull() && (st.IsNull() || v.Compare(*st) > 0) {
			*st = v
		}
	}
}
