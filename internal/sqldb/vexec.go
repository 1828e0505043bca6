package sqldb

// Parallel vectorized aggregation fast path.
//
// The dominant SeeDB query shape — GROUP BY one or more dimension columns
// (plus, for the combined target/reference rewrite, a CASE-WHEN flag over
// the target predicate), aggregating SUM/COUNT/AVG/MIN/MAX over measure
// columns — would spend almost all of its time in the row interpreter's
// per-row closure calls, group-key string encoding and map lookups. This
// file executes it block-at-a-time over column-store tables:
//
//   - The row range [lo, hi) is partitioned into one contiguous chunk per
//     worker. Chunk boundaries are a pure function of (lo, hi, workers),
//     so execution is deterministic regardless of scheduling.
//   - Each worker walks its chunk in blocks of selBlockRows rows, and
//     every block goes through four stages of tight, type-specialized
//     loops — there is no per-row dispatch on group kind, aggregate kind,
//     argument type or null-ness anywhere:
//       1. Selection. The WHERE clause runs as one bound selection
//          program (predsel.go): its compilable conjuncts as kernels over
//          the block, the conjuncts outside the kernel grammar through
//          their own closures on the rows the kernels kept (the hybrid
//          residual filter — a query never falls back whole because one
//          conjunct is exotic, and a predicate with no compilable
//          conjunct is a program of residuals alone). The survivors
//          become a vector of block-relative row indices.
//       2. Group ids. One loop per GROUP BY column adds id·stride into a
//          vector of combined group ids — the mixed-radix combination of
//          per-column dictionary codes (strings), tri-state bool codes,
//          the CASE flag (its predicate again a bound program), and
//          int/float codes (below).
//       3. Slots. Group ids resolve to accumulator slots through a flat
//          table when the id space is small and an integer map otherwise
//          (never a string map); unseen ids take the next slot, in row
//          order, so slots are in first-seen order.
//       4. Accumulate. One loop per aggregate slot folds the selected
//          rows into struct-of-arrays accumulators indexed by group slot
//          (groupAcc), visiting rows in ascending order so every
//          per-group float sum associates exactly as a row-at-a-time scan
//          of the chunk would. MIN/MAX compare typed column values; no
//          Value is built per row.
//   - Every group id is global before any worker starts. Int GROUP BY
//     columns whose value span over [lo, hi) keeps the whole id space
//     within denseGroupIDCap are range-coded: id = v − min + 1, with the
//     bounds taken by a stateless pre-pass over the range. Float columns
//     and wider ints are dictionary-coded by one pre-pass over the range
//     (numCodes): a per-row code vector plus the values in first-seen
//     order, exactly what a string column already has. The layout then
//     knows every cardinality exactly, and the one runtime decline — an
//     id space beyond maxGroupIDSpace — is decided before the scan.
//   - At the end of its chunk a worker materializes groupEntry, aggState
//     and key Values once, from three slabs, and the partials merge in
//     chunk order, which reproduces exactly the first-seen group order of
//     a sequential scan. Results are therefore identical to the row
//     interpreter — bit for bit with one worker, whose single chunk folds
//     rows in scan order — with one caveat family: SUM/AVG reassociate
//     floating-point addition across chunks, so float aggregates can
//     differ in final ulps when partial sums are inexact, and on data
//     containing NaN the non-transitive Compare semantics (NaN "equals"
//     everything) make MIN/MAX and NaN payload bits order-dependent
//     across chunk splits. Selection kernels reproduce the interpreter's
//     NaN comparison semantics exactly (see cmpFloat), so row selection
//     never diverges.
//   - Context cancellation is checked once per block inside each worker
//     and in the dictionary pre-pass, so large scans stay cancellable.
//
// Queries outside the shape (row stores, expression group keys or
// aggregate arguments, DISTINCT aggregates, string MIN/MAX, predicates
// that do not compile, group-id spaces that overflow) fall back to the
// row interpreter, and the reason is reported in
// ExecStats.FallbackReason. HAVING, ORDER BY, projection, DISTINCT,
// LIMIT and OFFSET need no analysis here: they operate on the finalized
// groups, shared with the serial path.

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"

	"seedb/internal/telemetry"
)

// denseGroupIDCap bounds the per-worker flat lookup table (entries are
// int32, so this is 256 KiB per worker). Larger id spaces use a map. It
// is also the id-space budget within which int group columns are
// range-coded rather than dictionary-coded.
const denseGroupIDCap = 1 << 16

// maxGroupIDSpace bounds the total mixed-radix group-id space; beyond it
// the fast path declines before the scan (fallback to the interpreter).
const maxGroupIDSpace = 1 << 40

// selBlockRows is the block size of the scan: every stage runs over
// blocks of this many rows, so the per-worker selection bitmaps and
// row/id/slot vectors stay L1-resident however large the chunk is.
const selBlockRows = 1024

// Fast-path fallback reasons, reported via ExecStats.FallbackReason and
// aggregated per reason by the engine's Metrics.
const (
	fallbackNonGrouped    = "non-grouped query"
	fallbackRowStore      = "row-store table"
	fallbackIDSpace       = "id-space overflow"
	fallbackNonColumnKey  = "non-column group key"
	fallbackCaseShape     = "non-flag CASE group key"
	fallbackWhereShape    = "non-compilable WHERE"
	fallbackDistinctAgg   = "distinct agg"
	fallbackExprAgg       = "expression agg argument"
	fallbackNonNumericAgg = "non-numeric agg argument"
)

// maxWorkersPerQuery caps effective scan workers at a small multiple of
// GOMAXPROCS: more workers than cores only adds partial tables to merge,
// and the cap keeps an absurd ExecOptions.Workers (e.g. forwarded from
// an untrusted request knob) from spawning a goroutine per row.
func maxWorkersPerQuery() int { return 4 * runtime.GOMAXPROCS(0) }

// vecGroupKind classifies one GROUP BY expression for the fast path.
type vecGroupKind uint8

const (
	// vecGroupDict is a dictionary-encoded string column; ids are
	// 0 = NULL, code+1 otherwise.
	vecGroupDict vecGroupKind = iota
	// vecGroupBool is a bool column; ids are 0 = NULL, 1 = false,
	// 2 = true.
	vecGroupBool
	// vecGroupNum is an int or float column; ids are 0 = NULL, else
	// either v − min + 1 (a range-coded int) or the pre-pass dictionary
	// code + 1. Which one is decided per execution, see vecLayout.
	vecGroupNum
	// vecGroupFlag is CASE WHEN pred THEN a ELSE b END over integer
	// literals (SeeDB's combined target/reference flag); ids are
	// 0 = else-arm, 1 = then-arm.
	vecGroupFlag
)

// vecGroup is one analyzed GROUP BY column.
type vecGroup struct {
	kind         vecGroupKind
	col          int        // table column (dict/bool/num)
	typ          ColumnType // column type (num)
	flagSel      *selProg   // compiled flag predicate (flag only)
	thenV, elseV int64      // flag arm values (flag only)
}

// vecInfo is the compile-time fast-path analysis of a grouped plan. The
// aggregate slots reuse plan.aggs (argCol/argType are validated here).
type vecInfo struct {
	groups []vecGroup
	// filterSel is the compiled WHERE predicate (nil when the query has
	// no WHERE clause).
	filterSel *selProg
	// numGroups indexes the vecGroupNum entries of groups.
	numGroups []int
	// countOf[ai] >= 0 says aggregate slot ai is a COUNT(x) whose value
	// the SUM(x) or AVG(x) in slot countOf[ai] keeps anyway — the number
	// of values it summed — so the scan skips ai and copies that count.
	// SeeDB asks for every measure as such a SUM/COUNT pair.
	countOf []int
}

// vectorizeGrouped analyzes a grouped statement and returns the
// fast-path info, or nil and the reason when any part of the query shape
// is ineligible.
func vectorizeGrouped(stmt *SelectStmt, p *plan, schema *Schema) (*vecInfo, string) {
	v := &vecInfo{groups: make([]vecGroup, 0, len(stmt.GroupBy))}
	for _, g := range stmt.GroupBy {
		switch e := g.(type) {
		case *ColumnExpr:
			idx, ok := schema.Lookup(e.Name)
			if !ok {
				return nil, fallbackNonColumnKey
			}
			switch typ := schema.Column(idx).Type; typ {
			case TypeString:
				v.groups = append(v.groups, vecGroup{kind: vecGroupDict, col: idx})
			case TypeBool:
				v.groups = append(v.groups, vecGroup{kind: vecGroupBool, col: idx})
			default: // TypeInt, TypeFloat
				v.numGroups = append(v.numGroups, len(v.groups))
				v.groups = append(v.groups, vecGroup{kind: vecGroupNum, col: idx, typ: typ})
			}
		case *CaseExpr:
			if len(e.Whens) != 1 || e.Else == nil || IsAggregate(e.Whens[0].Cond) {
				return nil, fallbackCaseShape
			}
			thenLit, ok1 := e.Whens[0].Then.(*LiteralExpr)
			elseLit, ok2 := e.Else.(*LiteralExpr)
			if !ok1 || !ok2 || thenLit.Val.Kind != KindInt || elseLit.Val.Kind != KindInt {
				return nil, fallbackCaseShape
			}
			if thenLit.Val.I == elseLit.Val.I {
				// Both arms produce the same group key value; the two flag
				// ids would split what the interpreter treats as one group.
				return nil, fallbackCaseShape
			}
			flagSel, err := compileSelection(e.Whens[0].Cond, schema)
			if err != nil {
				return nil, fallbackCaseShape
			}
			v.groups = append(v.groups, vecGroup{
				kind: vecGroupFlag, flagSel: flagSel,
				thenV: thenLit.Val.I, elseV: elseLit.Val.I,
			})
		default:
			return nil, fallbackNonColumnKey
		}
	}
	for i := range p.aggs {
		a := &p.aggs[i]
		if a.distinct {
			return nil, fallbackDistinctAgg
		}
		switch a.kind {
		case aggCountStar:
		case aggCount:
			if a.argCol < 0 {
				return nil, fallbackExprAgg
			}
		case aggSum, aggAvg, aggMin, aggMax:
			if a.argCol < 0 {
				return nil, fallbackExprAgg
			}
			switch a.argType {
			case TypeInt, TypeFloat, TypeBool:
			default:
				// String MIN/MAX would need dictionary-order comparisons;
				// SUM/AVG over strings is a degenerate all-skip. Fall back.
				return nil, fallbackNonNumericAgg
			}
		default:
			return nil, fallbackDistinctAgg
		}
	}
	v.countOf = make([]int, len(p.aggs))
	for i := range p.aggs {
		v.countOf[i] = -1
		for j := range p.aggs {
			if sums := p.aggs[j].kind == aggSum || p.aggs[j].kind == aggAvg; sums &&
				p.aggs[i].kind == aggCount && p.aggs[i].argCol == p.aggs[j].argCol {
				v.countOf[i] = j
				break
			}
		}
	}
	if stmt.Where != nil {
		var err error
		if v.filterSel, err = compileSelection(stmt.Where, schema); err != nil {
			return nil, fallbackWhereShape
		}
	}
	return v, ""
}

// vecLayout is one execution's mixed-radix layout of the combined group
// id: per GROUP BY column a cardinality and a stride, decided against
// the live table and the scanned range on every execution.
type vecLayout struct {
	cards, strides []uint64
	idSpace        uint64
	// base holds, for a range-coded int column, the value its id 1
	// stands for (id = v − base + 1).
	base []int64
	// codes and dicts hold, for a dictionary-coded numeric column, the
	// pre-pass coding (numCodes) of the scanned rows from lo on. codes
	// is nil for every other column.
	codes [][]int32
	dicts [][]uint64
	lo    int
}

// layout lays out the group id for a scan of [lo, hi). Static
// cardinalities come from the live table (dictionary sizes); int columns
// are range-coded while the id space stays dense; the remaining numeric
// columns are dictionary-coded by a pre-pass, which makes their
// cardinalities exact too. ok=false reports an id space beyond
// maxGroupIDSpace; err is the context's, should it end the pre-pass.
func (v *vecInfo) layout(ctx context.Context, t *colSnap, lo, hi int) (lay *vecLayout, ok bool, err error) {
	n := len(v.groups)
	lay = &vecLayout{
		cards: make([]uint64, n), strides: make([]uint64, n), base: make([]int64, n),
		codes: make([][]int32, n), dicts: make([][]uint64, n), lo: lo,
	}
	space := uint64(1)
	for i, g := range v.groups {
		switch g.kind {
		case vecGroupDict:
			lay.cards[i] = uint64(len(t.cols[g.col].dict)) + 1 // +1 for NULL
		case vecGroupBool:
			lay.cards[i] = 3
		case vecGroupFlag:
			lay.cards[i] = 2
		case vecGroupNum:
			continue // assigned below
		}
		if space > maxGroupIDSpace/lay.cards[i] {
			return nil, false, nil
		}
		space *= lay.cards[i]
	}
	for _, i := range v.numGroups {
		g := &v.groups[i]
		c := &t.cols[g.col]
		if g.typ == TypeInt {
			if base, card, fits := intRangeCard(c, lo, hi, denseGroupIDCap/space); fits {
				lay.base[i], lay.cards[i] = base, card
				space *= card
				continue
			}
		}
		if lay.codes[i], lay.dicts[i], err = numCodes(ctx, c, g.typ, lo, hi); err != nil {
			return nil, false, err
		}
		lay.cards[i] = uint64(len(lay.dicts[i])) + 1
	}
	lay.idSpace = 1
	for i, card := range lay.cards {
		lay.strides[i] = lay.idSpace
		if lay.idSpace > maxGroupIDSpace/card {
			return nil, false, nil
		}
		lay.idSpace *= card
	}
	return lay, true, nil
}

// numCodes dictionary-codes numeric column c over rows [lo, hi) by value
// identity (groupKeyBits, the interpreter's appendKey identity):
// codes[r−lo] is row r's code, and dict lists the values' bits in
// first-seen order, so code k stands for dict[k]. NULL rows keep code 0;
// their id comes from the NULL markers. The context is checked once per
// block.
func numCodes(ctx context.Context, c *columnVector, typ ColumnType, lo, hi int) (codes []int32, dict []uint64, err error) {
	codes = make([]int32, hi-lo)
	ids := make(map[uint64]int32)
	// memo is a direct-mapped cache in front of ids: a column of a few
	// hundred distinct values resolves nearly every row without the map.
	var memo [256]struct {
		bits uint64
		code int32
	}
	for i := range memo {
		memo[i].code = -1
	}
	for bLo := lo; bLo < hi; bLo += selBlockRows {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		bHi := min(bLo+selBlockRows, hi)
		nulls := nullsIn(c, bLo, bHi)
		for r := bLo; r < bHi; r++ {
			if nulls != nil && nulls[r-bLo] {
				continue
			}
			bits := groupKeyBits(c, typ, r)
			m := &memo[bits*0x9e3779b97f4a7c15>>56]
			if m.code < 0 || m.bits != bits {
				code, seen := ids[bits]
				if !seen {
					code = int32(len(dict))
					ids[bits] = code
					dict = append(dict, bits)
				}
				m.bits, m.code = bits, code
			}
			codes[r-lo] = m.code
		}
	}
	return codes, dict, nil
}

// intRangeCard takes the bounds of int column c over rows [lo, hi) and
// returns the range coding they allow: ids are 0 = NULL and v − base + 1
// otherwise, card of them in all. fits=false means the coding needs more
// than maxCard ids; the scan stops at the first block that shows it.
func intRangeCard(c *columnVector, lo, hi int, maxCard uint64) (base int64, card uint64, fits bool) {
	if maxCard < 2 {
		return 0, 0, false
	}
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	for bLo := lo; bLo < hi; bLo += selBlockRows {
		bHi := min(bLo+selBlockRows, hi)
		ints := c.ints[bLo:bHi]
		if c.nulls == nil {
			for _, x := range ints {
				mn, mx = min(mn, x), max(mx, x)
			}
		} else {
			for i, isNull := range c.nulls[bLo:bHi] {
				if !isNull {
					mn, mx = min(mn, ints[i]), max(mx, ints[i])
				}
			}
		}
		// The unsigned difference is the true span even when mx − mn
		// overflows int64.
		if mn <= mx && uint64(mx)-uint64(mn) > maxCard-2 {
			return 0, 0, false
		}
	}
	if mn > mx {
		return 0, 1, true // no non-NULL value in range: NULL's id is the only one
	}
	return mn, uint64(mx) - uint64(mn) + 2, true
}

// describe names how each GROUP BY column is coded in this layout, for
// the scan span's group_keys attribute.
func (lay *vecLayout) describe(v *vecInfo) string {
	names := make([]string, len(v.groups))
	for i, g := range v.groups {
		switch {
		case g.kind == vecGroupDict:
			names[i] = "dict"
		case g.kind == vecGroupBool:
			names[i] = "bool"
		case g.kind == vecGroupFlag:
			names[i] = "flag"
		case lay.codes[i] == nil:
			names[i] = "range"
		default:
			names[i] = "numdict"
		}
	}
	return strings.Join(names, ",")
}

// vecPartial is one worker's accumulated chunk state: entries in the
// chunk's first-seen order, with the group id of each entry alongside.
type vecPartial struct {
	entries []*groupEntry
	gids    []uint64
	scanned int
}

// gidIndex maps combined group ids to entry slots (-1 = absent): a flat
// table when the id space is small, an integer map otherwise. Both the
// chunk scans and the merge use it, so group identity cannot drift
// between the two.
type gidIndex struct {
	dense  []int32
	sparse map[uint64]int32
}

// newGIDIndex sizes the index for the given id space.
func newGIDIndex(idSpace uint64) *gidIndex {
	if idSpace <= denseGroupIDCap {
		d := make([]int32, idSpace)
		for i := range d {
			d[i] = -1
		}
		return &gidIndex{dense: d}
	}
	return &gidIndex{sparse: make(map[uint64]int32)}
}

// get returns the slot for gid, or -1.
func (x *gidIndex) get(gid uint64) int32 {
	if x.dense != nil {
		return x.dense[gid]
	}
	if i, ok := x.sparse[gid]; ok {
		return i
	}
	return -1
}

// put records gid's slot.
func (x *gidIndex) put(gid uint64, idx int32) {
	if x.dense != nil {
		x.dense[gid] = idx
	} else {
		x.sparse[gid] = idx
	}
}

// vecRun is the outcome of one fast-path execution.
type vecRun struct {
	entries   []*groupEntry
	scanned   int
	workers   int
	kernels   int // selection kernels bound for this execution
	residuals int // predicate conjuncts evaluated through closures
}

// run executes the fast path over [lo, hi) with opts.Workers workers.
// ran reports whether the fast path was applicable at runtime, which is
// decided before any worker starts; when false the caller must use the
// row interpreter.
func (v *vecInfo) run(p *plan, t *colSnap, opts ExecOptions, lo, hi int) (res *vecRun, ran bool, err error) {
	lo, hi = clampRange(lo, hi, t.rows)
	lay, ok, err := v.layout(opts.Ctx, t, lo, hi)
	if !ok {
		return nil, false, err
	}

	workers := opts.Workers
	if max := maxWorkersPerQuery(); workers > max {
		workers = max
	}
	if n := hi - lo; workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// Bind the compiled predicates to the live table once; the bound
	// programs (dictionary match tables included) are shared read-only by
	// every worker.
	res = &vecRun{workers: workers}
	bind := func(prog *selProg) *boundSel {
		res.kernels += prog.kernelCount()
		res.residuals += prog.residualCount()
		return prog.bind(t)
	}
	var boundFilter *boundSel
	if v.filterSel != nil {
		boundFilter = bind(v.filterSel)
	}
	boundFlags := make([]*boundSel, len(v.groups))
	for i, g := range v.groups {
		if g.kind == vecGroupFlag {
			boundFlags[i] = bind(g.flagSel)
		}
	}

	// The same projection mask the row interpreter would use, shared
	// read-only by every worker's residual evaluations.
	wanted := t.wantedMask(p.scanCols)

	parts := make([]*vecPartial, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cLo := lo + w*(hi-lo)/workers
		cHi := lo + (w+1)*(hi-lo)/workers
		wg.Add(1)
		go func(w, cLo, cHi int) {
			defer wg.Done()
			s := newChunkScan(v, p, t, lay, wanted, boundFilter, boundFlags)
			parts[w], errs[w] = s.scan(opts.Ctx, cLo, cHi)
		}(w, cLo, cHi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, true, e
		}
	}

	res.entries, res.scanned = v.merge(p, parts, lay.idSpace)
	if sp := telemetry.SpanFromContext(opts.Ctx); sp != nil {
		sp.SetAttr("group_keys", lay.describe(v))
	}
	return res, true, nil
}

// identRows is the selected-row vector of a block nothing filtered:
// every block-relative index in order. Shared and read-only.
var identRows = func() (ident [selBlockRows]int32) {
	for i := range ident {
		ident[i] = int32(i)
	}
	return ident
}()

// chunkScan is one worker's scan of one contiguous row chunk: the
// read-only execution context, the per-block vectors every stage reads
// and writes, and the chunk's accumulators.
type chunkScan struct {
	v      *vecInfo
	p      *plan
	t      *colSnap
	lay    *vecLayout
	filter *boundSel   // bound WHERE program, nil → no WHERE clause
	flags  []*boundSel // bound flag program per flag group column
	// view is the row the residual evaluations see; rowView is &view
	// boxed once, so handing it to an evalFn does not allocate.
	view    colRowView
	rowView RowView

	// Block vectors, reused across blocks. sel and flag are bitmaps over
	// the block's rows, scratch two more for the disjunction kernels;
	// rows lists the selected rows as block-relative indices; gids and
	// slots run parallel to rows.
	sel, flag   [selBlockRows]bool
	scratch     [2 * selBlockRows]bool
	rows, slots [selBlockRows]int32
	gids        [selBlockRows]uint64

	index *gidIndex
	acc   groupAcc
}

// newChunkScan sets up one worker's scan state.
func newChunkScan(v *vecInfo, p *plan, t *colSnap, lay *vecLayout, wanted []bool, filter *boundSel, flags []*boundSel) *chunkScan {
	s := &chunkScan{
		v: v, p: p, t: t, lay: lay, filter: filter, flags: flags,
		view:  colRowView{t: t, wanted: wanted},
		index: newGIDIndex(lay.idSpace),
	}
	s.rowView = &s.view
	s.acc.init(p.aggs, lay.idSpace)
	return s
}

// scan accumulates rows [lo, hi) block by block and materializes the
// chunk's groups.
func (s *chunkScan) scan(ctx context.Context, lo, hi int) (*vecPartial, error) {
	for blockLo := lo; blockLo < hi; blockLo += selBlockRows {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		blockHi := min(blockLo+selBlockRows, hi)
		rows := s.selectRows(blockLo, blockHi)
		if len(rows) == 0 {
			continue
		}
		gids := s.gids[:len(rows)]
		s.groupIDs(blockLo, blockHi, rows, gids)
		s.accumulate(blockLo, blockHi, rows, s.resolveSlots(gids))
	}
	return s.materialize(hi - lo), nil
}

// selectRows is stage 1: it returns the block-relative indices of the
// rows of [lo, hi) that pass the WHERE clause, ascending. With a WHERE
// clause, s.sel holds the kernels' verdict (before residuals) for the
// flag kernels to seed from.
func (s *chunkScan) selectRows(lo, hi int) []int32 {
	n := hi - lo
	if s.filter == nil {
		return identRows[:n]
	}
	sel := s.sel[:n]
	fillRange(sel, n)
	s.filter.apply(lo, hi, sel, s.scratch[:])
	rows := s.rows[:n]
	k := 0
	for i, keep := range sel {
		rows[k] = int32(i)
		if keep {
			k++
		}
	}
	return s.keepTruthy(rows[:k], lo, s.filter.residual)
}

// keepTruthy filters rows, in place, down to those on which every
// residual conjunct is TRUE.
func (s *chunkScan) keepTruthy(rows []int32, lo int, residual []evalFn) []int32 {
	if len(residual) == 0 {
		return rows
	}
	kept := rows[:0]
rowLoop:
	for _, r := range rows {
		s.view.row = lo + int(r)
		for _, fn := range residual {
			if !fn(s.rowView).Truthy() {
				continue rowLoop
			}
		}
		kept = append(kept, r)
	}
	return kept
}

// nullsIn returns c's NULL markers for rows [lo, hi), or nil when the
// column has none — the one null-ness test a block loop hoists.
func nullsIn(c *columnVector, lo, hi int) []bool {
	if c.nulls == nil {
		return nil
	}
	return c.nulls[lo:hi]
}

// groupIDs is stage 2: gids[j] becomes the combined group id of selected
// row rows[j], one pass per GROUP BY column.
func (s *chunkScan) groupIDs(lo, hi int, rows []int32, gids []uint64) {
	clear(gids)
	for i := range s.v.groups {
		g := &s.v.groups[i]
		stride := s.lay.strides[i]
		switch {
		case g.kind == vecGroupFlag:
			// Load, conditionally add, store: unlike a conditional +=
			// this compiles without a branch, and the flag is data no
			// predictor learns.
			flag := s.flagBits(i, lo, hi, rows)
			for j, r := range rows {
				gid := gids[j]
				if flag[r] {
					gid += stride
				}
				gids[j] = gid
			}
		case g.kind == vecGroupDict:
			c := &s.t.cols[g.col]
			addCodeIDs(gids, rows, c.codes[lo:hi], nullsIn(c, lo, hi), 0, stride)
		case g.kind == vecGroupBool:
			// Stored 0/1, so false and true are the range code over base 0.
			c := &s.t.cols[g.col]
			addCodeIDs(gids, rows, c.ints[lo:hi], nullsIn(c, lo, hi), 0, stride)
		case s.lay.codes[i] != nil:
			c, codes := &s.t.cols[g.col], s.lay.codes[i][lo-s.lay.lo:hi-s.lay.lo]
			addCodeIDs(gids, rows, codes, nullsIn(c, lo, hi), 0, stride)
		default: // range-coded int
			c := &s.t.cols[g.col]
			addCodeIDs(gids, rows, c.ints[lo:hi], nullsIn(c, lo, hi), s.lay.base[i], stride)
		}
	}
}

// addCodeIDs adds one column's share of the group id for codes that are
// small integers — dictionary codes, bools, range-coded ints:
// id = code − base + 1, and 0 for NULL.
func addCodeIDs[T int32 | int64](gids []uint64, rows []int32, codes []T, nulls []bool, base T, stride uint64) {
	rows = rows[:len(gids)]
	if nulls == nil {
		for j, r := range rows {
			gids[j] += (uint64(codes[r]-base) + 1) * stride
		}
		return
	}
	for j, r := range rows {
		if !nulls[r] {
			gids[j] += (uint64(codes[r]-base) + 1) * stride
		}
	}
}

// flagBits evaluates flag group column i over the block and returns a
// bitmap that holds the predicate's truth at every selected row.
func (s *chunkScan) flagBits(i, lo, hi int, rows []int32) []bool {
	n := hi - lo
	flag := s.flag[:n]
	bf := s.flags[i]
	// Seed from the filter's verdict so the flag kernels skip rows the
	// filter kernels already rejected.
	if s.filter != nil {
		copy(flag, s.sel[:n])
	} else {
		fillRange(flag, n)
	}
	bf.apply(lo, hi, flag, s.scratch[:])
	if len(bf.residual) > 0 {
		for _, r := range rows {
			if !flag[r] {
				continue
			}
			s.view.row = lo + int(r)
			for _, fn := range bf.residual {
				if !fn(s.rowView).Truthy() {
					flag[r] = false
					break
				}
			}
		}
	}
	return flag
}

// resolveSlots is stage 3: each group id becomes its accumulator slot,
// and an id not seen before in this chunk takes the next one — ids are
// visited in row order, so slots are in first-seen order.
func (s *chunkScan) resolveSlots(gids []uint64) []int32 {
	slots := s.slots[:len(gids)]
	if dense := s.index.dense; dense != nil {
		for j, gid := range gids {
			slot := dense[gid]
			if slot < 0 {
				slot = s.acc.addGroup(gid)
				dense[gid] = slot
			}
			slots[j] = slot
		}
		return slots
	}
	for j, gid := range gids {
		slot, ok := s.index.sparse[gid]
		if !ok {
			slot = s.acc.addGroup(gid)
			s.index.sparse[gid] = slot
		}
		slots[j] = slot
	}
	return slots
}

// accumulate is stage 4: one typed loop per aggregate slot folds the
// selected rows into the accumulators of their groups.
func (s *chunkScan) accumulate(lo, hi int, rows, slots []int32) {
	rows = rows[:len(slots)]
	for ai := range s.p.aggs {
		if s.v.countOf[ai] >= 0 {
			continue // materialize copies the count from the summing slot
		}
		a := &s.p.aggs[ai]
		ints, flts, seen := s.acc.slot(ai)
		if a.kind == aggCountStar {
			for _, g := range slots {
				ints[g]++
			}
			continue
		}
		c := &s.t.cols[a.argCol]
		nulls := nullsIn(c, lo, hi)
		switch {
		case a.kind == aggCount:
			if nulls == nil {
				for _, g := range slots {
					ints[g]++
				}
				continue
			}
			for j, g := range slots {
				if !nulls[rows[j]] {
					ints[g]++
				}
			}
		case a.kind == aggSum || a.kind == aggAvg:
			if a.argType == TypeFloat {
				foldSum(ints, flts, slots, rows, c.flts[lo:hi], nulls)
			} else {
				foldSum(ints, flts, slots, rows, c.ints[lo:hi], nulls)
			}
		case a.argType == TypeFloat:
			foldExtreme(flts, seen, slots, rows, c.flts[lo:hi], nulls, a.kind == aggMax)
		default: // MIN/MAX over int or bool
			foldExtreme(ints, seen, slots, rows, c.ints[lo:hi], nulls, a.kind == aggMax)
		}
	}
}

// foldSum adds the non-NULL xs of the selected rows into their groups'
// sums, counting them.
func foldSum[T int64 | float64](count []int64, sum []float64, slots, rows []int32, xs []T, nulls []bool) {
	if nulls == nil {
		for j, g := range slots {
			count[g]++
			sum[g] += float64(xs[rows[j]])
		}
		return
	}
	for j, g := range slots {
		if r := rows[j]; !nulls[r] {
			count[g]++
			sum[g] += float64(xs[r])
		}
	}
}

// foldExtreme keeps each group's running MIN (or MAX) of the non-NULL xs
// of the selected rows. Comparisons go through float64 on purpose, ints
// included: the interpreter's Value.Compare coerces every numeric kind
// with AsFloat, so ints beyond 2^53 that collide as float64 must
// keep-first here too or parallel results would diverge from serial
// ones.
func foldExtreme[T int64 | float64](ext []T, seen []bool, slots, rows []int32, xs []T, nulls []bool, isMax bool) {
	if isMax {
		for j, g := range slots {
			r := rows[j]
			if nulls != nil && nulls[r] {
				continue
			}
			if x := xs[r]; !seen[g] || float64(x) > float64(ext[g]) {
				ext[g], seen[g] = x, true
			}
		}
		return
	}
	for j, g := range slots {
		r := rows[j]
		if nulls != nil && nulls[r] {
			continue
		}
		if x := xs[r]; !seen[g] || float64(x) < float64(ext[g]) {
			ext[g], seen[g] = x, true
		}
	}
}

// groupAcc holds one chunk's aggregate accumulators as struct-of-arrays
// slabs: for aggregate slot ai and group slot g, the cell is at
// [ai*cap+g] of each slab, so one aggregate's loop walks one dense
// segment. What a cell means depends on the aggregate:
//
//	COUNT(*), COUNT(x)   ints = rows counted
//	SUM(x), AVG(x)       ints = values summed, flts = their sum
//	MIN(x), MAX(x)       seen = has a value; the running extreme is in
//	                     flts for a float x, in ints for an int or bool x
type groupAcc struct {
	nAggs  int
	minMax bool     // some aggregate is a MIN or MAX, so seen is kept
	cap    int      // group slots each segment has room for
	gids   []uint64 // group id per slot, in first-seen order
	ints   []int64
	flts   []float64
	seen   []bool
}

// init sizes the accumulators for the plan's aggregates, with room for
// the whole id space when that is small and for any first block's groups
// otherwise.
func (a *groupAcc) init(aggs []aggSpec, idSpace uint64) {
	a.nAggs = len(aggs)
	for i := range aggs {
		if aggs[i].kind == aggMin || aggs[i].kind == aggMax {
			a.minMax = true
		}
	}
	a.grow(int(min(idSpace, selBlockRows)))
}

// grow re-lays the slabs out with room for cap groups per segment.
func (a *groupAcc) grow(cap int) {
	ints, flts := make([]int64, a.nAggs*cap), make([]float64, a.nAggs*cap)
	var seen []bool
	if a.minMax {
		seen = make([]bool, a.nAggs*cap)
	}
	n := len(a.gids)
	for ai := 0; ai < a.nAggs; ai++ {
		copy(ints[ai*cap:], a.ints[ai*a.cap:ai*a.cap+n])
		copy(flts[ai*cap:], a.flts[ai*a.cap:ai*a.cap+n])
		if a.minMax {
			copy(seen[ai*cap:], a.seen[ai*a.cap:ai*a.cap+n])
		}
	}
	a.ints, a.flts, a.seen, a.cap = ints, flts, seen, cap
}

// addGroup opens the next slot for a group id not seen before.
func (a *groupAcc) addGroup(gid uint64) int32 {
	if len(a.gids) == a.cap {
		a.grow(2 * a.cap)
	}
	a.gids = append(a.gids, gid)
	return int32(len(a.gids) - 1)
}

// slot returns aggregate slot ai's segments, indexed by group slot.
func (a *groupAcc) slot(ai int) (ints []int64, flts []float64, seen []bool) {
	lo, hi := ai*a.cap, (ai+1)*a.cap
	if a.minMax {
		seen = a.seen[lo:hi]
	}
	return a.ints[lo:hi], a.flts[lo:hi], seen
}

// materialize turns the chunk's accumulators into the groupEntry form
// the merge and the finalize stage share with the interpreter. Entries,
// aggregate states and key Values each come from one slab, whatever the
// number of groups.
func (s *chunkScan) materialize(scanned int) *vecPartial {
	n, nAggs, nKeys := len(s.acc.gids), len(s.p.aggs), len(s.v.groups)
	entries := make([]groupEntry, n)
	states := make([]aggState, n*nAggs)
	keys := make([]Value, n*nKeys)
	part := &vecPartial{entries: make([]*groupEntry, n), gids: s.acc.gids, scanned: scanned}
	for g, gid := range s.acc.gids {
		e := &entries[g]
		e.keys = keys[g*nKeys : (g+1)*nKeys : (g+1)*nKeys]
		e.states = states[g*nAggs : (g+1)*nAggs : (g+1)*nAggs]
		s.v.decodeKeys(e.keys, s.t, gid, s.lay)
		part.entries[g] = e
	}
	for ai := range s.p.aggs {
		a := &s.p.aggs[ai]
		src := ai
		if of := s.v.countOf[ai]; of >= 0 {
			src = of
		}
		ints, flts, seen := s.acc.slot(src)
		for g := 0; g < n; g++ {
			st := &states[g*nAggs+ai]
			switch a.kind {
			case aggCountStar, aggCount:
				st.count = ints[g]
			case aggSum, aggAvg:
				st.count, st.sum = ints[g], flts[g]
			default: // aggMin, aggMax
				if !seen[g] {
					continue
				}
				st.seen = true
				switch a.argType {
				case TypeFloat:
					st.ext = Float(flts[g])
				case TypeInt:
					st.ext = Int(ints[g])
				default: // TypeBool
					st.ext = Bool(ints[g] != 0)
				}
			}
		}
	}
	return part
}

// decodeKeys fills keys with the group-key Values the row interpreter would
// have produced for the row(s) behind a combined group id.
func (v *vecInfo) decodeKeys(keys []Value, t *colSnap, gid uint64, lay *vecLayout) {
	for i := range v.groups {
		g := &v.groups[i]
		id := (gid / lay.strides[i]) % lay.cards[i]
		switch {
		case g.kind == vecGroupFlag:
			if id == 1 {
				keys[i] = Int(g.thenV)
			} else {
				keys[i] = Int(g.elseV)
			}
		case id == 0:
			keys[i] = Null()
		case g.kind == vecGroupDict:
			keys[i] = Str(t.cols[g.col].dict[id-1])
		case g.kind == vecGroupBool:
			keys[i] = Bool(id == 2)
		case lay.codes[i] == nil:
			keys[i] = Int(lay.base[i] + int64(id-1))
		case g.typ == TypeFloat:
			keys[i] = Float(math.Float64frombits(lay.dicts[i][id-1]))
		default:
			keys[i] = Int(int64(lay.dicts[i][id-1]))
		}
	}
}

// merge folds worker partials together in chunk order. Group ids are
// global, and because chunks are contiguous and ordered, appending each
// chunk's unseen groups in its own first-seen order reproduces the
// first-seen order of a sequential scan.
func (v *vecInfo) merge(p *plan, parts []*vecPartial, idSpace uint64) (out []*groupEntry, scanned int) {
	if len(parts) == 1 {
		return parts[0].entries, parts[0].scanned
	}
	index := newGIDIndex(idSpace)
	for _, part := range parts {
		scanned += part.scanned
		for j, e := range part.entries {
			gid := part.gids[j]
			slot := index.get(gid)
			if slot < 0 {
				slot = int32(len(out))
				out = append(out, e)
				index.put(gid, slot)
				continue
			}
			dst := out[slot].states
			for ai := range p.aggs {
				dst[ai].merge(&p.aggs[ai], &e.states[ai])
			}
		}
	}
	return out, scanned
}
