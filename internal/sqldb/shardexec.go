package sqldb

// Distributed execution support for shard-routing backends.
//
// A shard router (internal/backend/shardbe) holds a fact table
// partitioned row-wise across N child stores and must answer any query
// the single-store engine would — bit for bit. This file serves user
// SQL (/api/query) and the router's own statistics: the recommendation
// engine's statements are marked decomposable, run on every child as
// written, and the engine folds their partial rows itself
// (backend.WithDecomposable), so they never reach this plan or merge.
// This file supplies the two halves of that contract:
//
//   - NewShardPlan analyzes one SELECT and rewrites it into a *partial*
//     statement every shard executes locally. Aggregates are decomposed
//     into mergeable pieces: COUNT stays a count, SUM and AVG become
//     SUM+COUNT pairs (AVG's division is deferred to finalization),
//     MIN/MAX stay MIN/MAX, and COUNT(DISTINCT x) adds x to the child's
//     GROUP BY so the merge can union value sets (distinctSet, typed:
//     no value is boxed into a string key) instead of adding
//     overlapping counts. HAVING, ORDER BY, DISTINCT, LIMIT and OFFSET
//     are stripped from the child statement — they are meaningless on a
//     partial view of the data — and re-applied after the merge.
//
//   - Merge folds the child results back together with the same
//     discipline the parallel vectorized executor uses for its worker
//     chunks (vexec.go): partials combine cell by cell (shardSlot.fold)
//     in shard order, and each shard's unseen groups append in
//     that shard's first-seen order. When shards hold contiguous blocks
//     of the original row order, this reproduces exactly the first-seen
//     group order of an unsharded sequential scan; the finalize stage
//     (HAVING, outputs, ORDER BY, DISTINCT, LIMIT/OFFSET) is the
//     single-store plan's own code, so nothing downstream can diverge.
//
// Floating-point caveat, shared with vexec.go: SUM/AVG reassociate
// addition across shard boundaries, so float aggregates can differ from
// a single-store scan in final ulps when partial sums are inexact. On
// data whose partial sums are exactly representable (the differential
// and conformance harnesses generate such data on purpose) results are
// bit-identical. Two residual caveats are new here: a SUM/AVG argument
// expression mixing float-convertible and string values inside one group
// merges by the child's non-NULL count rather than the float-convertible
// count, and MIN/MAX ties between bit-distinct equal-comparing values
// (NaN payloads, -0.0 vs 0.0) resolve in sub-group rather than row order
// when a COUNT(DISTINCT) forced sub-grouping. Neither shape occurs in
// SeeDB-generated queries.

import (
	"fmt"
	"slices"
	"strings"
)

// shardSlot describes how one aggregate slot of the original plan is
// carried through a child's partial result row.
type shardSlot struct {
	kind     aggKind
	distinct bool
	// keyPos (distinct only) is the child column holding the argument
	// value whose distinct count is being taken.
	keyPos int
	// cntCol is the partial COUNT column (count kinds and SUM/AVG);
	// sumCol the partial SUM column (SUM/AVG); valCol the partial MIN or
	// MAX column. Unused positions are -1.
	cntCol, sumCol, valCol int
}

// ShardPlan is one statement decomposed for partitioned execution: the
// partial statement each shard runs, plus the merge that reassembles the
// original query's result from the shards' partial rows.
//
// A UNION ALL statement decomposes branch by branch. The child runs the
// UNION ALL of the branch partials, so a child scans its rows once for
// every branch. Each partial row leads with its branch index and is
// padded with typed numeric NULLs to the widest partial; the merge
// routes rows by that index, merges each branch as its own SELECT, and
// concatenates the branches in order. A partial keeps its branch's
// aggregate-free items in place, so when the original's columns have one
// type in every branch — as a typed SQL store requires — the child's do
// too: the partial aggregates after them are numeric.
type ShardPlan struct {
	p          *plan
	child      *SelectStmt // the partial statement, one SELECT
	childSQL   string
	keyCols    []int // the child columns holding the original group keys
	childWidth int   // expected child result row width
	slots      []shardSlot
	// presenceCol (a compound's global-aggregation branch only; -1
	// otherwise) is the partial COUNT(*) that tells whether the child
	// matched any row: the branch's share of a compound's Groups
	// count cannot say so.
	presenceCol int
	// branches holds a compound's per-branch plans, nil for a SELECT.
	branches []*ShardPlan
}

// NewShardPlan compiles stmt against the partitioned table's schema and
// returns the decomposed plan. Every statement the single-store engine
// accepts over that one table is supported; compile errors are the same
// errors the embedded store would report.
func NewShardPlan(stmt *SelectStmt, schema *Schema) (*ShardPlan, error) {
	if len(stmt.UnionAll) == 0 {
		sp, err := newBranchShardPlan(stmt, schema, false)
		if err != nil {
			return nil, err
		}
		sp.childSQL = sp.child.String()
		return sp, nil
	}
	sp := &ShardPlan{presenceCol: -1}
	width := 0
	for i, b := range stmt.Branches() {
		if !strings.EqualFold(b.Table, stmt.Table) {
			return nil, fmt.Errorf("sqldb: shard plan: every UNION ALL branch must read table %q, branch %d reads %q", stmt.Table, i, b.Table)
		}
		bp, err := newBranchShardPlan(b, schema, true)
		if err != nil {
			return nil, err
		}
		if i > 0 && len(bp.p.colNames) != len(sp.branches[0].p.colNames) {
			return nil, fmt.Errorf("sqldb: UNION ALL branch %d has %d columns, want %d", i, len(bp.p.colNames), len(sp.branches[0].p.colNames))
		}
		sp.branches = append(sp.branches, bp)
		width = max(width, bp.childWidth)
	}
	var union *SelectStmt
	for i, bp := range sp.branches {
		c := *bp.child
		c.Items = append([]SelectItem{{Expr: &LiteralExpr{Val: Int(int64(i))}}}, c.Items...)
		for len(c.Items) < 1+width {
			c.Items = append(c.Items, SelectItem{Expr: &CaseExpr{Whens: []CaseWhen{{
				Cond: &LiteralExpr{Val: Bool(false)}, Then: &LiteralExpr{Val: Int(0)},
			}}}})
		}
		if union == nil {
			union = &c
		} else {
			union.UnionAll = append(union.UnionAll, &c)
		}
	}
	sp.childWidth = 1 + width
	sp.childSQL = union.String()
	return sp, nil
}

// newBranchShardPlan decomposes one SELECT; inUnion marks a branch of a
// compound, whose global aggregation carries a presence column.
func newBranchShardPlan(stmt *SelectStmt, schema *Schema, inUnion bool) (*ShardPlan, error) {
	p, err := compileForSchema(stmt, schema)
	if err != nil {
		return nil, err
	}
	sp := &ShardPlan{p: p, presenceCol: -1}
	if p.grouped {
		sp.buildGroupedChild(stmt, inUnion)
	} else {
		sp.buildSimpleChild(stmt)
	}
	return sp, nil
}

// ChildSQL returns the partial statement each shard executes, rendered
// as canonical SQL.
func (sp *ShardPlan) ChildSQL() string { return sp.childSQL }

// buildGroupedChild rewrites an aggregation statement into its partial
// form: the original select list's aggregate-free items in place (group
// keys, constants and expressions over keys), then each group key and
// COUNT(DISTINCT) argument column they do not carry, then decomposed
// partial-aggregate columns.
func (sp *ShardPlan) buildGroupedChild(stmt *SelectStmt, inUnion bool) {
	var items []SelectItem
	for _, it := range stmt.Items {
		if !IsAggregate(it.Expr) {
			items = append(items, it)
		}
	}
	numItems := len(items)

	// keyPosFor resolves a group key or a COUNT(DISTINCT) argument to a
	// child key column: an aggregate-free item or a key placed before
	// when the texts match, else an extra key appended to the child
	// GROUP BY.
	var groupBy []Expr
	keyPos := make(map[string]int)
	keyPosFor := func(e Expr) int {
		s := e.String()
		if pos, ok := keyPos[s]; ok {
			return pos
		}
		pos := slices.IndexFunc(items[:numItems], func(it SelectItem) bool { return it.Expr.String() == s })
		if pos < 0 {
			pos = len(items)
			items = append(items, SelectItem{Expr: e})
		}
		keyPos[s] = pos
		groupBy = append(groupBy, e)
		return pos
	}
	sp.keyCols = make([]int, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		sp.keyCols[i] = keyPosFor(g)
	}
	// Distinct-argument keys next, so every key column precedes every
	// partial-aggregate column.
	for i := range sp.p.aggs {
		if sp.p.aggs[i].distinct {
			keyPosFor(sp.p.aggs[i].src.Args[0])
		}
	}

	// Partial aggregate columns, deduplicated by rendered text so a
	// repeated aggregate (legal SQL, shared slot upstream) is computed
	// once per shard too.
	partialIdx := make(map[string]int)
	partialFor := func(e Expr) int {
		s := e.String()
		if pos, ok := partialIdx[s]; ok {
			return pos
		}
		pos := len(items)
		partialIdx[s] = pos
		items = append(items, SelectItem{Expr: e})
		return pos
	}

	sp.slots = make([]shardSlot, len(sp.p.aggs))
	for i := range sp.p.aggs {
		a := &sp.p.aggs[i]
		slot := shardSlot{kind: a.kind, distinct: a.distinct, keyPos: -1, cntCol: -1, sumCol: -1, valCol: -1}
		switch {
		case a.distinct:
			slot.keyPos = keyPosFor(a.src.Args[0])
		case a.kind == aggCountStar:
			slot.cntCol = partialFor(&FuncExpr{Name: "COUNT", Star: true})
		case a.kind == aggCount:
			slot.cntCol = partialFor(&FuncExpr{Name: "COUNT", Args: []Expr{a.src.Args[0]}})
		case a.kind == aggSum || a.kind == aggAvg:
			slot.sumCol = partialFor(&FuncExpr{Name: "SUM", Args: []Expr{a.src.Args[0]}})
			slot.cntCol = partialFor(&FuncExpr{Name: "COUNT", Args: []Expr{a.src.Args[0]}})
		case a.kind == aggMin:
			slot.valCol = partialFor(&FuncExpr{Name: "MIN", Args: []Expr{a.src.Args[0]}})
		case a.kind == aggMax:
			slot.valCol = partialFor(&FuncExpr{Name: "MAX", Args: []Expr{a.src.Args[0]}})
		}
		sp.slots[i] = slot
	}
	if inUnion && len(sp.keyCols) == 0 {
		sp.presenceCol = partialFor(&FuncExpr{Name: "COUNT", Star: true})
	}

	// A HAVING-only statement can plan no keys and no aggregates; keep
	// the child select list non-empty (the placeholder feeds no slot).
	if len(items) == 0 {
		items = append(items, SelectItem{Expr: &FuncExpr{Name: "COUNT", Star: true}})
	}

	child := &SelectStmt{
		Items:   items,
		Table:   stmt.Table,
		Where:   stmt.Where,
		GroupBy: groupBy,
		Limit:   -1,
	}
	sp.childWidth = len(items)
	sp.child = child
}

// buildSimpleChild rewrites a projection-only statement: the original
// select list plus one extra column per ORDER BY key that does not
// resolve to an output column, so the merge can sort without re-scanning
// base rows. DISTINCT/ORDER BY/LIMIT/OFFSET move to the merge.
func (sp *ShardPlan) buildSimpleChild(stmt *SelectStmt) {
	items := append([]SelectItem(nil), stmt.Items...)
	extras := 0
	for i := range sp.p.orderBy {
		if sp.p.orderBy[i].eval != nil {
			items = append(items, SelectItem{Expr: stmt.OrderBy[i].Expr})
			extras++
		}
	}
	child := &SelectStmt{
		Items: items,
		Table: stmt.Table,
		Where: stmt.Where,
		Limit: -1,
	}
	// p.outputs reflects SELECT * expansion; the child expands the same
	// way, so its rows are outputs ++ inline order keys.
	sp.childWidth = len(sp.p.outputs) + extras
	sp.child = child
}

// ShardPart is one shard's contribution to a merge: the partial result
// rows plus the child execution's materialized-group count (which the
// global-aggregation Groups accounting below needs — rows alone cannot
// distinguish a shard whose scan matched nothing from a shard that was
// never scanned, because grouped-with-no-keys children emit a synthetic
// all-NULL row either way).
type ShardPart struct {
	Rows   [][]Value
	Groups int
}

// Merge reassembles the original query's result from per-shard partial
// results, in shard order. Result.Stats reports only Groups (the merged
// pre-HAVING group count, matching what a single-store execution would
// materialize); scan counters are the caller's to aggregate from the
// child executions.
func (sp *ShardPlan) Merge(parts []ShardPart) (*Result, error) {
	if sp.branches != nil {
		return sp.mergeUnion(parts)
	}
	p := sp.p
	res := &Result{Columns: p.colNames}
	res.Stats.Workers = 1

	if !p.grouped {
		for _, part := range parts {
			for _, row := range part.Rows {
				if len(row) != sp.childWidth {
					return nil, fmt.Errorf("sqldb: shard merge: child row has %d columns, want %d", len(row), sp.childWidth)
				}
			}
			res.Rows = append(res.Rows, part.Rows...)
		}
		p.postProcess(res)
		return res, nil
	}

	groups := make(map[string]*groupEntry)
	var entries []*groupEntry
	var keyBuf []byte
	anyChildGroups := false
	for _, part := range parts {
		if part.Groups > 0 {
			anyChildGroups = true
		}
		for _, row := range part.Rows {
			if len(row) != sp.childWidth {
				return nil, fmt.Errorf("sqldb: shard merge: child row has %d columns, want %d", len(row), sp.childWidth)
			}
			keyBuf = keyBuf[:0]
			for _, c := range sp.keyCols {
				keyBuf = row[c].AppendKey(keyBuf)
			}
			g, ok := groups[string(keyBuf)]
			if !ok {
				keys := make([]Value, len(sp.keyCols))
				for i, c := range sp.keyCols {
					keys[i] = row[c]
				}
				g = &groupEntry{keys: keys, states: make([]aggState, len(p.aggs))}
				groups[string(keyBuf)] = g
				entries = append(entries, g)
			}
			for si := range sp.slots {
				sp.slots[si].fold(&g.states[si], row)
			}
		}
	}

	res.Stats.Groups = len(entries)
	if len(sp.keyCols) == 0 {
		// Global aggregation: a single-store scan materializes one group
		// exactly when some row survived the filter. Children that matched
		// nothing still contributed their synthetic row to the merge (a
		// value-neutral zero state), so the group count comes from the
		// children's own accounting instead.
		res.Stats.Groups = 0
		if anyChildGroups {
			res.Stats.Groups = 1
		}
	}
	p.finalizeGroups(entries, res)
	p.postProcess(res)
	return res, nil
}

// fold combines one child partial row into an aggregate state, mirroring
// aggState.merge for the decomposed column layout: a COUNT(DISTINCT)
// slot adds the row's argument value to the group's distinctSet.
func (s *shardSlot) fold(st *aggState, row []Value) {
	switch {
	case s.distinct:
		if st.distinct == nil {
			st.distinct = &distinctSet{}
		}
		st.distinct.add(row[s.keyPos]) // skips NULL, as SQL aggregates do
	case s.kind == aggCountStar || s.kind == aggCount:
		if n, ok := row[s.cntCol].AsInt(); ok {
			st.count += n
		}
	case s.kind == aggSum || s.kind == aggAvg:
		// A NULL partial sum means the shard saw no summable value in the
		// group; skipping it (count included) reproduces the single-store
		// accumulator, which only counts rows it actually summed.
		sum := row[s.sumCol]
		if sum.IsNull() {
			return
		}
		f, ok := sum.AsFloat()
		if !ok {
			return
		}
		n, _ := row[s.cntCol].AsInt()
		st.count += n
		st.sum += f
	case s.kind == aggMin:
		v := row[s.valCol]
		if !v.IsNull() && (!st.seen || v.Compare(st.ext) < 0) {
			st.ext = v
			st.seen = true
		}
	case s.kind == aggMax:
		v := row[s.valCol]
		if !v.IsNull() && (!st.seen || v.Compare(st.ext) > 0) {
			st.ext = v
			st.seen = true
		}
	}
}

// mergeUnion splits every child's partial rows by their branch index,
// merges each branch's partials in shard order and concatenates the
// branches' results in branch order.
func (sp *ShardPlan) mergeUnion(parts []ShardPart) (*Result, error) {
	split := make([][]ShardPart, len(sp.branches))
	for b := range split {
		split[b] = make([]ShardPart, len(parts))
	}
	for pi, part := range parts {
		for _, row := range part.Rows {
			if len(row) != sp.childWidth {
				return nil, fmt.Errorf("sqldb: shard merge: child row has %d columns, want %d", len(row), sp.childWidth)
			}
			b, ok := row[0].AsInt()
			if !ok || b < 0 || int(b) >= len(sp.branches) {
				return nil, fmt.Errorf("sqldb: shard merge: child row has branch index %v, want 0..%d", row[0], len(sp.branches)-1)
			}
			bp := &split[b][pi]
			bp.Rows = append(bp.Rows, row[1:1+sp.branches[b].childWidth])
		}
	}
	res := &Result{Columns: sp.branches[0].p.colNames}
	res.Stats.Workers = 1
	for b, bp := range sp.branches {
		for pi := range split[b] {
			split[b][pi].Groups = bp.partGroups(split[b][pi].Rows)
		}
		r, err := bp.Merge(split[b])
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, r.Rows...)
		res.Stats.Groups += r.Stats.Groups
	}
	return res, nil
}

// partGroups is a compound branch's share of a child's materialized
// groups as its Merge reads it: whether the child matched any row, for
// a global aggregation, and the row count otherwise.
func (sp *ShardPlan) partGroups(rows [][]Value) int {
	if sp.presenceCol < 0 {
		return len(rows)
	}
	for _, row := range rows {
		if n, ok := row[sp.presenceCol].AsInt(); ok && n > 0 {
			return 1
		}
	}
	return 0
}
