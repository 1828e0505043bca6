package sqldb

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"seedb/internal/telemetry"
)

// ExecOptions controls one query execution.
type ExecOptions struct {
	// Ctx, when non-nil, is checked periodically during scans so callers
	// can cancel long-running queries.
	Ctx context.Context
	// Lo and Hi restrict the scan to table rows in [Lo, Hi). Hi <= 0
	// means "to the end of the table". SeeDB's phased execution framework
	// uses this to process the i-th of n partitions.
	Lo, Hi int
	// Workers sets the intra-query scan parallelism of the vectorized
	// fast path (see vexec.go), which runs every grouped-aggregation
	// query over a column-store table; values <= 1 mean one worker.
	// Row stores and query shapes the fast path cannot handle run on the
	// row interpreter whatever the count. The effective count is capped
	// at a small multiple of GOMAXPROCS (and at the scanned row count),
	// so forwarding an untrusted value cannot spawn unbounded goroutines.
	// One worker folds rows in scan order, exactly as the interpreter
	// does. The parallel merge is deterministic (first-seen group order is
	// preserved), but SUM/AVG reassociate floating-point addition across
	// chunks, so float aggregates may differ from a one-worker run in
	// final ulps on data whose partial sums are inexact.
	Workers int
}

// ExecStats reports what one query execution cost. It is the one
// per-execution record in the repository: backend.ExecStats is an alias,
// the JSON tags are the netbe wire form (the "stats" object of
// wire.QueryResponse; durations travel as nanoseconds), and
// core.ExecTotals.Add is the one fold over it — a counter added here
// reaches remote children and the engine's totals without a second
// declaration. The embedded store fills the first seven fields; the
// rest belong to routing and network backends and stay zero here.
// Fields a backend cannot measure are zero (see the capability matrix
// in docs/BACKENDS.md).
type ExecStats struct {
	// RowsScanned is the number of base-table rows visited (0 when the
	// store does not expose scan counts), counted per UNION ALL branch:
	// N branches over R rows report N·R even when one shared scan read
	// the rows once — what the same branches report as separate
	// statements. Row visits then keep measuring the work sharing and
	// pruning save; a physical count would read the same for a pruned
	// phase as for an unpruned one.
	RowsScanned int `json:"rows_scanned"`
	// Groups is the peak number of distinct groups materialized by hash
	// aggregation — the engine's memory-utilization proxy for the SeeDB
	// memory budget B (Problem 4.1 in the paper).
	Groups int `json:"groups"`
	// Vectorized reports whether the vectorized fast path executed the
	// aggregation (false for the row interpreter and for non-grouped
	// queries).
	Vectorized bool `json:"vectorized"`
	// FallbackReason says why Vectorized is false ("row-store table",
	// "non-column group key", "distinct agg", "id-space overflow", ...).
	// Empty when the fast path ran; backends that cannot introspect
	// their executor leave it empty too, and the engine then reports the
	// fallback as "unreported".
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Workers is the number of scan workers actually used (1 for the
	// row interpreter; never more than the scanned row count).
	Workers int `json:"workers"`
	// SelectionKernels counts the compiled predicate kernels this
	// execution bound (WHERE conjuncts plus CASE-flag conjuncts);
	// ResidualPredicates counts the conjuncts that stayed on the per-row
	// closure path (the hybrid residual filter). Both are zero for the
	// row interpreter and on backends without an engine-side vectorized
	// executor.
	SelectionKernels   int `json:"selection_kernels"`
	ResidualPredicates int `json:"residual_predicates"`
	// ShardFanout counts the child-backend executions a routing backend
	// (internal/backend/shardbe) fanned this query out to; leaf backends
	// leave it zero. ShardStragglerMax is the slowest of those child
	// executions — the fan-out's critical path, since the merge cannot
	// start until the last shard answers.
	ShardFanout       int           `json:"shard_fanout"`
	ShardStragglerMax time.Duration `json:"shard_straggler_ns"`
	// NetRetries counts transparent retries a network child backend
	// (internal/backend/netbe) performed inside this execution after
	// retryable transport or 5xx failures. Zero means every round trip
	// succeeded first try.
	NetRetries int `json:"net_retries"`
	// ShardsDegraded counts child shards this execution skipped because
	// they were unavailable and the caller allowed partial results; the
	// result covers only the surviving shards' rows. DegradedShards
	// lists their indices (sorted). Both are zero/nil for complete
	// results — callers (and the result cache, which must never admit a
	// partial result) key off ShardsDegraded > 0.
	ShardsDegraded int   `json:"shards_degraded,omitempty"`
	DegradedShards []int `json:"degraded_shards,omitempty"`
}

// StampSpan threads the execution's resource counters into span
// attributes — the cost-attribution half of tracing: where the rows
// went, not just where the time went. It is the one per-execution
// stamper; the engine's query span, the server's child.query root and
// the shard router's shard.exec spans all call it. Zero shard/net
// counters stay off leaf-backend traces.
func (s ExecStats) StampSpan(sp *telemetry.Span) {
	if sp == nil {
		return
	}
	sp.SetAttr("rows_scanned", strconv.Itoa(s.RowsScanned))
	sp.SetAttr("groups", strconv.Itoa(s.Groups))
	if s.ShardFanout > 0 {
		sp.SetAttr("shard_fanout", strconv.Itoa(s.ShardFanout))
	}
	if s.NetRetries > 0 {
		sp.SetAttr("net_retries", strconv.Itoa(s.NetRetries))
	}
}

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    [][]Value
	Stats   ExecStats
}

// checkEvery is how many rows pass between context cancellation checks.
const checkEvery = 8192

// plan is a compiled SELECT ready for execution.
type plan struct {
	table    Table
	filter   evalFn
	scanCols []int

	grouped   bool
	groupKeys []evalFn
	aggs      []aggSpec
	having    evalFn   // over groupRow; nil when absent
	outputs   []evalFn // over groupRow (grouped) or base row (simple)
	// direct (grouped only) says, per output, where finalize copies its
	// value from; the output's evalFn is nil unless it is outEval.
	direct   []outSource
	colNames []string

	orderBy  []orderKey
	distinct bool
	limit    int
	offset   int

	// vec is the vectorized fast-path analysis of a grouped plan bound to
	// a column store, or nil when the table or the query shape is not
	// eligible (see vexec.go); vecReason then names why.
	vec       *vecInfo
	vecReason string
}

// orderKey is a compiled ORDER BY entry. If outCol >= 0 the key is an
// output column; otherwise eval computes it.
type orderKey struct {
	outCol int
	eval   evalFn
	desc   bool
}

// outSource is where a grouped output's value comes from: a group key
// or a finalized aggregate (by index), a constant, or — outEval — its
// evalFn. A select list of keys, aggregates and constants (SeeDB's whole
// query shape, a UNION ALL's typed NULL placeholders included) then
// finalizes with no call per cell.
type outSource struct {
	kind outKind
	idx  int
	val  Value
}

// outKind classifies an outSource.
type outKind uint8

const (
	outEval outKind = iota
	outKey
	outAgg
	outConst
)

// directSource classifies a rewritten grouped output expression: a
// $key or $agg column of the virtual schema, a constant — it reads no
// column, and every function is deterministic — whose value the caller
// evaluates, or an expression finalize evaluates per group.
func directSource(e Expr, numKeys int) outSource {
	if n, ok := e.(*ColumnExpr); ok {
		if k, ok := strings.CutPrefix(n.Name, "$key"); ok {
			if i, err := strconv.Atoi(k); err == nil && i < numKeys {
				return outSource{kind: outKey, idx: i}
			}
		}
		if a, ok := strings.CutPrefix(n.Name, "$agg"); ok {
			if i, err := strconv.Atoi(a); err == nil {
				return outSource{kind: outAgg, idx: i}
			}
		}
	}
	constant := true
	walkExpr(e, func(n Expr) {
		if _, ok := n.(*ColumnExpr); ok {
			constant = false
		}
	})
	if constant {
		return outSource{kind: outConst}
	}
	return outSource{}
}

// groupRow is the finalize-phase RowView: group-key values followed by
// finalized aggregate values.
type groupRow struct {
	keys []Value
	aggs []Value
}

// Value implements RowView over the virtual (keys ++ aggs) layout.
func (g groupRow) Value(i int) Value {
	if i < len(g.keys) {
		return g.keys[i]
	}
	return g.aggs[i-len(g.keys)]
}

// compilePlan plans stmt for execution over t, deciding which executor
// aggregates it: a grouped plan over a column store gets the vectorized
// fast-path analysis (selection kernels included); row stores always
// run the row interpreter.
func compilePlan(stmt *SelectStmt, t Table) (*plan, error) {
	p, err := compileForSchema(stmt, t.Schema())
	if err != nil {
		return nil, err
	}
	p.table = t
	if _, col := t.(*ColStore); !col {
		p.vecReason = fallbackRowStore
	} else if p.grouped {
		p.vec, p.vecReason = vectorizeGrouped(stmt, p, t.Schema())
	}
	return p, nil
}

// stmtPlan is a compiled statement: one plan per SELECT of a UNION ALL,
// or one plan for a plain SELECT. shared says one vectorized scan can
// feed every branch: each is a fast-path grouped plan over the same
// column store. A plain SELECT is the one-branch case.
type stmtPlan struct {
	branches []*plan
	shared   bool
}

// compileStatement plans every SELECT of stmt over the table lookup
// resolves for it.
func compileStatement(stmt *SelectStmt, lookup func(name string) (Table, error)) (*stmtPlan, error) {
	sp := &stmtPlan{shared: true}
	for i, b := range stmt.Branches() {
		t, err := lookup(b.Table)
		if err != nil {
			return nil, err
		}
		p, err := compilePlan(b, t)
		if err != nil {
			return nil, err
		}
		if i > 0 && len(p.colNames) != len(sp.branches[0].colNames) {
			return nil, fmt.Errorf("sqldb: UNION ALL branch %d has %d columns, want %d", i, len(p.colNames), len(sp.branches[0].colNames))
		}
		sp.branches = append(sp.branches, p)
		sp.shared = sp.shared && p.vec != nil && p.table == sp.branches[0].table
	}
	return sp, nil
}

// execute runs the statement: as one shared scan when it can. A
// compound the shared scan cannot run has its branches run one after
// another as statements of their own; a lone SELECT runs on the row
// interpreter. Either way the rows are the branches' rows in branch
// order, and the stats add up the branches': RowsScanned counts each
// branch's row visits.
func (sp *stmtPlan) execute(opts ExecOptions) (*Result, error) {
	if sp.shared {
		if res, ran, err := sp.executeShared(opts); err != nil || ran {
			return res, err
		}
	}
	if len(sp.branches) == 1 {
		return sp.branches[0].execute(opts)
	}
	res := &Result{Columns: sp.branches[0].colNames}
	res.Stats.Vectorized = true
	for _, p := range sp.branches {
		r, err := (&stmtPlan{branches: []*plan{p}, shared: p.vec != nil}).execute(opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, r.Rows...)
		st := &res.Stats
		st.RowsScanned += r.Stats.RowsScanned
		st.Groups += r.Stats.Groups
		st.Vectorized = st.Vectorized && r.Stats.Vectorized
		st.FallbackReason = cmp.Or(st.FallbackReason, r.Stats.FallbackReason)
		st.Workers = max(st.Workers, r.Stats.Workers)
		st.SelectionKernels += r.Stats.SelectionKernels
		st.ResidualPredicates += r.Stats.ResidualPredicates
	}
	return res, nil
}

// executeShared runs every branch from one vectorized scan, then
// finalizes each branch's groups with its own plan. ran=false means a
// branch's group-id space is too large for the fast path.
func (sp *stmtPlan) executeShared(opts ExecOptions) (res *Result, ran bool, err error) {
	first := sp.branches[0]
	lo, hi := opts.Lo, opts.Hi
	if hi <= 0 {
		hi = first.table.NumRows()
	}
	var ssp *telemetry.Span
	opts.Ctx, ssp = telemetry.StartSpan(opts.Ctx, "sqldb.scan")
	run, ran, err := runVec(sp.branches, first.table.(*ColStore).snapshot(), opts, lo, hi)
	if err != nil || !ran {
		ssp.End()
		return nil, ran, err
	}
	res = &Result{Columns: first.colNames}
	run.stamp(&res.Stats)
	ssp.SetAttr("group_keys", run.keys)
	ssp.SetAttr("rows", strconv.Itoa(res.Stats.RowsScanned))
	ssp.SetAttr("workers", strconv.Itoa(res.Stats.Workers))
	ssp.End()
	// Each branch finalizes and post-processes its own rows, which
	// concatenate in branch order.
	_, fsp := telemetry.StartSpan(opts.Ctx, "sqldb.finalize")
	res.Rows = make([][]Value, 0, res.Stats.Groups)
	for b, p := range sp.branches {
		br := &Result{}
		p.finalizeGroups(run.entries[b], br)
		p.postProcess(br)
		res.Rows = append(res.Rows, br.Rows...)
	}
	fsp.End()
	return res, true, nil
}

// compileForSchema plans stmt against a schema alone. The resulting plan
// can finalize group entries and post-process rows (the shard-merge path
// in shardexec.go); compilePlan binds it to a table it can scan.
func compileForSchema(stmt *SelectStmt, schema *Schema) (*plan, error) {
	p := &plan{limit: stmt.Limit, offset: stmt.Offset, distinct: stmt.Distinct}

	// Expand SELECT *.
	items := make([]SelectItem, 0, len(stmt.Items))
	for _, it := range stmt.Items {
		if c, ok := it.Expr.(*ColumnExpr); ok && c.Name == "*" {
			for _, col := range schema.Columns() {
				items = append(items, SelectItem{Expr: &ColumnExpr{Name: col.Name}})
			}
			continue
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("sqldb: empty select list")
	}

	hasAgg := false
	for _, it := range items {
		if IsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	// HAVING implies aggregation (over one global group when GROUP BY is
	// absent).
	p.grouped = hasAgg || len(stmt.GroupBy) > 0 || stmt.Having != nil

	// Column names.
	for i, it := range items {
		name := it.Alias
		if name == "" {
			if c, ok := it.Expr.(*ColumnExpr); ok {
				name = c.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		p.colNames = append(p.colNames, name)
	}

	// Filter.
	var err error
	if stmt.Where != nil {
		if IsAggregate(stmt.Where) {
			return nil, fmt.Errorf("sqldb: aggregates are not allowed in WHERE")
		}
		p.filter, err = compileScalar(stmt.Where, schema)
		if err != nil {
			return nil, err
		}
		p.scanCols, err = referencedColumns(stmt.Where, schema, p.scanCols)
		if err != nil {
			return nil, err
		}
	}

	if !p.grouped {
		if stmt.Having != nil {
			return nil, fmt.Errorf("sqldb: HAVING requires aggregation")
		}
		return compileSimplePlan(p, stmt, items, schema)
	}
	return compileGroupedPlan(p, stmt, items, schema)
}

// compileSimplePlan finishes planning a projection-only query.
func compileSimplePlan(p *plan, stmt *SelectStmt, items []SelectItem, schema *Schema) (*plan, error) {
	var err error
	for _, it := range items {
		out, cerr := compileScalar(it.Expr, schema)
		if cerr != nil {
			return nil, cerr
		}
		p.outputs = append(p.outputs, out)
		p.scanCols, err = referencedColumns(it.Expr, schema, p.scanCols)
		if err != nil {
			return nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		key, kerr := compileOrderKey(o, items, func(e Expr) (evalFn, error) {
			f, cerr := compileScalar(e, schema)
			if cerr != nil {
				return nil, cerr
			}
			var rerr error
			p.scanCols, rerr = referencedColumns(e, schema, p.scanCols)
			if rerr != nil {
				return nil, rerr
			}
			return f, nil
		})
		if kerr != nil {
			return nil, kerr
		}
		p.orderBy = append(p.orderBy, key)
	}
	return p, nil
}

// compileGroupedPlan finishes planning an aggregation query.
func compileGroupedPlan(p *plan, stmt *SelectStmt, items []SelectItem, schema *Schema) (*plan, error) {
	var err error
	groupStrs := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		if IsAggregate(g) {
			return nil, fmt.Errorf("sqldb: aggregates are not allowed in GROUP BY")
		}
		key, cerr := compileScalar(g, schema)
		if cerr != nil {
			return nil, cerr
		}
		p.groupKeys = append(p.groupKeys, key)
		groupStrs[i] = g.String()
		p.scanCols, err = referencedColumns(g, schema, p.scanCols)
		if err != nil {
			return nil, err
		}
	}

	// Rewrite each select item: aggregate calls become virtual columns
	// $aggN (planning the aggregate into a slot), and sub-expressions
	// textually matching a GROUP BY expression become $keyN.
	rw := &aggRewriter{p: p, schema: schema, groupStrs: groupStrs}
	virtual := rw.virtualSchemaBuilder()

	compileFinal := func(e Expr) (evalFn, error) {
		re, rerr := rw.rewrite(e)
		if rerr != nil {
			return nil, rerr
		}
		return compileScalar(re, virtual())
	}

	// An output finalize copies (a key or an aggregate) keeps no evalFn;
	// a constant is evaluated here, once.
	for _, it := range items {
		re, rerr := rw.rewrite(it.Expr)
		if rerr != nil {
			return nil, rerr
		}
		var out evalFn
		d := directSource(re, len(stmt.GroupBy))
		if d.kind == outEval || d.kind == outConst {
			var cerr error
			if out, cerr = compileScalar(re, virtual()); cerr != nil {
				return nil, cerr
			}
		}
		if d.kind == outConst {
			d.val, out = out(nil), nil
		}
		p.outputs = append(p.outputs, out)
		p.direct = append(p.direct, d)
	}
	if stmt.Having != nil {
		h, herr := compileFinal(stmt.Having)
		if herr != nil {
			return nil, herr
		}
		p.having = h
	}
	for _, o := range stmt.OrderBy {
		key, kerr := compileOrderKey(o, items, compileFinal)
		if kerr != nil {
			return nil, kerr
		}
		p.orderBy = append(p.orderBy, key)
	}
	return p, nil
}

// aggRewriter rewrites post-aggregation expressions onto the virtual
// (group keys ++ aggregate slots) schema.
type aggRewriter struct {
	p         *plan
	schema    *Schema
	groupStrs []string
}

// virtualSchemaBuilder returns a function that builds the virtual schema
// reflecting the aggregate slots planned so far (slots are appended lazily
// as rewrite encounters aggregate calls).
func (rw *aggRewriter) virtualSchemaBuilder() func() *Schema {
	return func() *Schema {
		cols := make([]Column, 0, len(rw.groupStrs)+len(rw.p.aggs))
		for i := range rw.groupStrs {
			cols = append(cols, Column{Name: fmt.Sprintf("$key%d", i), Type: TypeString})
		}
		for i := range rw.p.aggs {
			cols = append(cols, Column{Name: fmt.Sprintf("$agg%d", i), Type: TypeFloat})
		}
		s, err := NewSchema(cols...)
		if err != nil {
			panic(err) // virtual names are unique by construction
		}
		return s
	}
}

// rewrite maps e onto the virtual schema, planning aggregate slots.
func (rw *aggRewriter) rewrite(e Expr) (Expr, error) {
	// A sub-expression equal to a GROUP BY expression becomes a key ref.
	s := e.String()
	for i, g := range rw.groupStrs {
		if s == g {
			return &ColumnExpr{Name: fmt.Sprintf("$key%d", i)}, nil
		}
	}
	switch n := e.(type) {
	case *LiteralExpr:
		return n, nil
	case *ColumnExpr:
		return nil, fmt.Errorf("sqldb: column %q must appear in GROUP BY or inside an aggregate", n.Name)
	case *FuncExpr:
		if aggFuncs[n.Name] {
			spec, err := newAggSpec(n, rw.schema)
			if err != nil {
				return nil, err
			}
			var rerr error
			rw.p.scanCols, rerr = funcArgColumns(n, rw.schema, rw.p.scanCols)
			if rerr != nil {
				return nil, rerr
			}
			rw.p.aggs = append(rw.p.aggs, spec)
			return &ColumnExpr{Name: fmt.Sprintf("$agg%d", len(rw.p.aggs)-1)}, nil
		}
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := rw.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &FuncExpr{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}, nil
	case *UnaryExpr:
		x, err := rw.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: n.Op, X: x}, nil
	case *BinaryExpr:
		l, err := rw.rewrite(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(n.R)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: n.Op, L: l, R: r}, nil
	case *InExpr:
		x, err := rw.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(n.List))
		for i, le := range n.List {
			rl, err := rw.rewrite(le)
			if err != nil {
				return nil, err
			}
			list[i] = rl
		}
		return &InExpr{X: x, List: list, Neg: n.Neg}, nil
	case *IsNullExpr:
		x, err := rw.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{X: x, Neg: n.Neg}, nil
	case *BetweenExpr:
		x, err := rw.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		lo, err := rw.rewrite(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rw.rewrite(n.Hi)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: x, Lo: lo, Hi: hi, Neg: n.Neg}, nil
	case *CaseExpr:
		whens := make([]CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			c, err := rw.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := rw.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			whens[i] = CaseWhen{Cond: c, Then: t}
		}
		var els Expr
		if n.Else != nil {
			re, err := rw.rewrite(n.Else)
			if err != nil {
				return nil, err
			}
			els = re
		}
		return &CaseExpr{Whens: whens, Else: els}, nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported expression %T in aggregate query", e)
	}
}

// funcArgColumns accumulates the base-table columns referenced by an
// aggregate call's arguments.
func funcArgColumns(f *FuncExpr, schema *Schema, into []int) ([]int, error) {
	var err error
	for _, a := range f.Args {
		into, err = referencedColumns(a, schema, into)
		if err != nil {
			return nil, err
		}
	}
	return into, nil
}

// compileOrderKey resolves one ORDER BY entry. Ordinals (ORDER BY 2) and
// alias references resolve to output columns; anything else compiles via
// the provided expression compiler.
func compileOrderKey(o OrderItem, items []SelectItem, compile func(Expr) (evalFn, error)) (orderKey, error) {
	key := orderKey{outCol: -1, desc: o.Desc}
	if lit, ok := o.Expr.(*LiteralExpr); ok && lit.Val.Kind == KindInt {
		n := int(lit.Val.I)
		if n < 1 || n > len(items) {
			return key, fmt.Errorf("sqldb: ORDER BY ordinal %d out of range", n)
		}
		key.outCol = n - 1
		return key, nil
	}
	if c, ok := o.Expr.(*ColumnExpr); ok {
		for i, it := range items {
			if it.Alias != "" && strings.EqualFold(it.Alias, c.Name) {
				key.outCol = i
				return key, nil
			}
		}
	}
	// Exact textual match with a select item also maps to its output.
	s := o.Expr.String()
	for i, it := range items {
		if it.Expr.String() == s {
			key.outCol = i
			return key, nil
		}
	}
	f, err := compile(o.Expr)
	if err != nil {
		return key, err
	}
	key.eval = f
	return key, nil
}

// groupEntry is one hash-aggregation bucket.
type groupEntry struct {
	keys   []Value
	states []aggState
}

// execute runs the plan over the configured row range.
func (p *plan) execute(opts ExecOptions) (*Result, error) {
	lo, hi := opts.Lo, opts.Hi
	if hi <= 0 {
		hi = p.table.NumRows()
	}
	res := &Result{Columns: p.colNames}
	res.Stats.Workers = 1

	if p.grouped {
		if err := p.executeGrouped(opts, lo, hi, res); err != nil {
			return nil, err
		}
	} else {
		res.Stats.FallbackReason = fallbackNonGrouped
		if err := p.executeSimple(opts, lo, hi, res); err != nil {
			return nil, err
		}
	}

	p.postProcess(res)
	return res, nil
}

// postProcess applies the row-level tail of every execution — ORDER BY,
// DISTINCT, OFFSET, LIMIT — shared by the single-store executors and the
// shard merge (shardexec.go).
func (p *plan) postProcess(res *Result) {
	p.sortRows(res)
	if p.distinct {
		res.Rows = dedupeRows(res.Rows)
	}
	if p.offset > 0 {
		if p.offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[p.offset:]
		}
	}
	if p.limit >= 0 && len(res.Rows) > p.limit {
		res.Rows = res.Rows[:p.limit]
	}
}

// dedupeRows removes duplicate rows, keeping first occurrences (SELECT
// DISTINCT). NULLs compare equal for de-duplication, per SQL.
func dedupeRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var key []byte
	for _, row := range rows {
		key = key[:0]
		for _, v := range row {
			key = v.AppendKey(key)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, row)
		}
	}
	return out
}

// executeSimple runs a projection-only scan.
func (p *plan) executeSimple(opts ExecOptions, lo, hi int, res *Result) error {
	_, sp := telemetry.StartSpan(opts.Ctx, "sqldb.scan")
	defer sp.End()
	n := 0
	scan := func(row RowView) error {
		n++
		if n%checkEvery == 0 && opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return err
			}
		}
		if p.filter != nil && !p.filter(row).Truthy() {
			return nil
		}
		out := make([]Value, len(p.outputs))
		for i, f := range p.outputs {
			out[i] = f(row)
		}
		// Inline order keys are appended and stripped after sorting.
		for _, k := range p.orderBy {
			if k.eval != nil {
				out = append(out, k.eval(row))
			}
		}
		res.Rows = append(res.Rows, out)
		return nil
	}
	err := p.table.ScanRange(lo, hi, p.scanCols, scan)
	res.Stats.RowsScanned = n
	return err
}

// executeGrouped runs hash aggregation on the row interpreter — the
// scan/accumulate stage, then the shared finalize stage (HAVING,
// outputs, order keys) — and records in the stats why the vectorized
// scan (stmtPlan.executeShared) did not run.
func (p *plan) executeGrouped(opts ExecOptions, lo, hi int, res *Result) error {
	res.Stats.FallbackReason = p.vecReason
	if p.vec != nil {
		// The one decline made against the live table, before the
		// scan: the exact group-id space is too large.
		res.Stats.FallbackReason = fallbackIDSpace
	}
	var ssp *telemetry.Span
	opts.Ctx, ssp = telemetry.StartSpan(opts.Ctx, "sqldb.scan")
	entries, err := p.aggregateSerial(opts, lo, hi, &res.Stats)
	ssp.SetAttr("rows", strconv.Itoa(res.Stats.RowsScanned))
	ssp.SetAttr("workers", strconv.Itoa(res.Stats.Workers))
	ssp.End()
	if err != nil {
		return err
	}
	_, fsp := telemetry.StartSpan(opts.Ctx, "sqldb.finalize")
	p.finalizeGroups(entries, res)
	fsp.End()
	return nil
}

// finalizeGroups runs the executor-independent finalize stage over
// accumulated group entries: HAVING, output expressions and inline order
// keys. It is shared by the scan executors (row interpreter, parallel
// vectorized fast path) and the shard merge, so finalize semantics cannot
// drift between single-store and fanned-out execution.
func (p *plan) finalizeGroups(entries []*groupEntry, res *Result) {
	// Global aggregation with no groups still emits one row.
	if len(p.groupKeys) == 0 && len(entries) == 0 {
		entries = append(entries, &groupEntry{states: make([]aggState, len(p.aggs))})
	}

	// One slab holds every output row and one scratch vector every
	// group's finalized aggregates (outputs copy the Values they keep),
	// so allocations do not scale with the group count.
	width := len(p.outputs)
	for _, key := range p.orderBy {
		if key.eval != nil {
			width++
		}
	}
	slab := make([]Value, len(entries)*width)
	gr := &groupRow{aggs: make([]Value, len(p.aggs))}
	var row RowView = gr // boxed once: a pointer converts without allocating
	for _, g := range entries {
		gr.keys = g.keys
		for i := range p.aggs {
			gr.aggs[i] = g.states[i].final(&p.aggs[i])
		}
		if p.having != nil && !p.having(row).Truthy() {
			continue
		}
		out := slab[:width:width]
		slab = slab[width:]
		for i, f := range p.outputs {
			switch d := &p.direct[i]; d.kind {
			case outKey:
				out[i] = g.keys[d.idx]
			case outAgg:
				out[i] = gr.aggs[d.idx]
			case outConst:
				out[i] = d.val
			default:
				out[i] = f(row)
			}
		}
		k := len(p.outputs)
		for _, key := range p.orderBy {
			if key.eval != nil {
				out[k] = key.eval(row)
				k++
			}
		}
		res.Rows = append(res.Rows, out)
	}
}

// aggregateSerial is the row-at-a-time hash aggregation interpreter.
func (p *plan) aggregateSerial(opts ExecOptions, lo, hi int, stats *ExecStats) ([]*groupEntry, error) {
	groups := make(map[string]*groupEntry)
	var entries []*groupEntry // deterministic first-seen order
	keyBuf := make([]byte, 0, 64)
	scratch := make([]Value, len(p.groupKeys))
	n := 0

	scan := func(row RowView) error {
		n++
		if n%checkEvery == 0 && opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return err
			}
		}
		if p.filter != nil && !p.filter(row).Truthy() {
			return nil
		}
		keyBuf = keyBuf[:0]
		for i, kf := range p.groupKeys {
			scratch[i] = kf(row)
			keyBuf = scratch[i].AppendKey(keyBuf)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			keys := make([]Value, len(scratch))
			copy(keys, scratch)
			g = &groupEntry{keys: keys, states: make([]aggState, len(p.aggs))}
			groups[string(keyBuf)] = g
			entries = append(entries, g)
		}
		for i := range p.aggs {
			g.states[i].update(&p.aggs[i], row)
		}
		return nil
	}
	if err := p.table.ScanRange(lo, hi, p.scanCols, scan); err != nil {
		return nil, err
	}
	stats.RowsScanned = n
	stats.Groups = len(groups)
	return entries, nil
}

// sortRows applies ORDER BY and strips any inline order-key columns.
func (p *plan) sortRows(res *Result) {
	if len(p.orderBy) == 0 {
		return
	}
	// Positions of each order key within the (possibly extended) row.
	pos := make([]int, len(p.orderBy))
	extra := 0
	for i, k := range p.orderBy {
		if k.outCol >= 0 {
			pos[i] = k.outCol
		} else {
			pos[i] = len(p.outputs) + extra
			extra++
		}
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		ra, rb := res.Rows[a], res.Rows[b]
		for i, k := range p.orderBy {
			c := ra[pos[i]].Compare(rb[pos[i]])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if extra > 0 {
		for i := range res.Rows {
			res.Rows[i] = res.Rows[i][:len(p.outputs)]
		}
	}
}
