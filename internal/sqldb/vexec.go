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
//          order, so slots are in first-seen order. The last key
//          column's share of the id is added in the same pass.
//       4. Accumulate. The selected rows fold into struct-of-arrays
//          accumulators indexed by group slot (groupAcc): one pass counts
//          rows and adds up to four sums over columns without NULLs, one
//          loop per remaining aggregate slot. Rows are visited in
//          ascending order, so every per-group float sum associates
//          exactly as a row-at-a-time scan of the chunk would. MIN/MAX
//          compare typed column values; no Value is built per row.
//   - Every group id is global before any worker starts. Int GROUP BY
//     columns whose value span over [lo, hi) keeps the whole id space
//     within denseGroupIDCap are range-coded: id = v − min + 1, with the
//     bounds taken by a stateless pre-pass over the range. Float columns
//     and wider ints are dictionary-coded by one pre-pass over the range
//     (numCodes): a per-row code vector plus the values in first-seen
//     order, exactly what a string column already has. The layout then
//     knows every cardinality exactly, and the one runtime decline — an
//     id space beyond maxGroupIDSpace — is decided before the scan.
//   - When the workers are done, their accumulators merge column by
//     column in chunk order, which reproduces exactly the first-seen
//     group order of a sequential scan, and each branch materializes
//     groupEntry, aggState and key Values once, from three slabs.
//     Results are therefore identical to the row interpreter — bit for
//     bit with one worker, whose single chunk folds rows in scan order —
//     with one caveat family: SUM/AVG reassociate
//     floating-point addition across chunks, so float aggregates can
//     differ in final ulps when partial sums are inexact, and on data
//     containing NaN the non-transitive Compare semantics (NaN "equals"
//     everything) make MIN/MAX and NaN payload bits order-dependent
//     across chunk splits. Selection kernels reproduce the interpreter's
//     NaN comparison semantics exactly (see andCmp), so row selection
//     never diverges.
//   - A UNION ALL whose branches are all such queries over one column
//     store is one scan: per block, each distinct WHERE and each
//     distinct (WHERE, flag) is evaluated once, the flags' share of the
//     group id is computed once per class of branches that share them,
//     and each branch then adds its own keys, resolves its own slots
//     and folds only its own aggregates. A plain SELECT is the one-branch
//     case of the same code.
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
	"slices"
	"strings"
	"sync"
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
	flagKey      string     // the predicate's SQL, its identity in a shared scan (flag only)
	thenV, elseV int64      // flag arm values (flag only)
}

// vecInfo is the compile-time fast-path analysis of a grouped plan. The
// aggregate slots reuse plan.aggs (argCol/argType are validated here).
type vecInfo struct {
	groups []vecGroup
	// filterSel is the compiled WHERE predicate (nil when the query has
	// no WHERE clause), and whereKey its SQL: branches of one statement
	// with equal keys share one evaluation per block.
	filterSel *selProg
	whereKey  string
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
				kind: vecGroupFlag, flagSel: flagSel, flagKey: e.Whens[0].Cond.String(),
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
		v.whereKey = stmt.Where.String()
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
	// Flags take the low strides, 1, 2, 4, ... in GROUP BY order, so
	// their share of the id depends only on the flags and a shared scan
	// computes it once for every branch with the same WHERE and flags.
	// Which column gets which stride changes no slot and no key.
	lay.idSpace = 1
	for _, flags := range []bool{true, false} {
		for i, card := range lay.cards {
			if (v.groups[i].kind == vecGroupFlag) != flags {
				continue
			}
			lay.strides[i] = lay.idSpace
			if lay.idSpace > maxGroupIDSpace/card {
				return nil, false, nil
			}
			lay.idSpace *= card
		}
	}
	return lay, true, nil
}

// numCodes dictionary-codes numeric column c over rows [lo, hi) by value
// identity (groupKeyBits, the interpreter's AppendKey identity):
// codes[r−lo] is row r's code, and dict lists the values' bits in
// first-seen order, so code k stands for dict[k]. NULL rows keep code 0;
// their id comes from the NULL markers. The context is checked once per
// block.
func numCodes(ctx context.Context, c *columnVector, typ ColumnType, lo, hi int) (codes []int32, dict []uint64, err error) {
	codes = make([]int32, hi-lo)
	ids := make(map[uint64]int32)
	var memo bitsMemo
	memo.clear()
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
			m, hit := memo.slot(bits)
			if !hit {
				code, seen := ids[bits]
				if !seen {
					code = int32(len(dict))
					ids[bits] = code
					dict = append(dict, bits)
				}
				*m = bitsMemoEntry{bits: bits, code: code}
			}
			codes[r-lo] = m.code
		}
	}
	return codes, dict, nil
}

// bitsMemo is a direct-mapped cache of numeric values' groupKeyBits in
// front of a map keyed by them: a column of a few hundred distinct values
// resolves nearly every row without the map. numCodes keeps each value's
// code in it; the statistics fold (statsState.foldColumns) only asks
// whether a value was just seen.
type bitsMemo [256]bitsMemoEntry

type bitsMemoEntry struct {
	bits uint64
	code int32 // -1 marks an empty entry
}

// clear empties the memo.
func (m *bitsMemo) clear() {
	for i := range m {
		m[i].code = -1
	}
}

// slot returns the entry bits maps to, and whether it holds bits.
func (m *bitsMemo) slot(bits uint64) (e *bitsMemoEntry, hit bool) {
	e = &m[bits*0x9e3779b97f4a7c15>>56]
	return e, e.code >= 0 && e.bits == bits
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

// vecRun is the outcome of one fast-path execution: per branch, the
// merged group entries, and the rows each branch visited.
type vecRun struct {
	entries   [][]*groupEntry
	scanned   int
	workers   int
	kernels   int    // selection kernels bound for this execution
	residuals int    // predicate conjuncts evaluated through closures
	keys      string // how each branch coded its group keys
}

// stamp records the run's counters on an execution's stats. RowsScanned
// counts row visits per branch and Groups the groups of every branch.
func (r *vecRun) stamp(stats *ExecStats) {
	stats.RowsScanned, stats.Groups = r.scanned*len(r.entries), 0
	for _, e := range r.entries {
		stats.Groups += len(e)
	}
	stats.Vectorized = true
	stats.Workers = r.workers
	stats.SelectionKernels = r.kernels
	stats.ResidualPredicates = r.residuals
}

// sharedScan is one execution's plan for scanning [lo, hi) once for
// every branch of a statement: the distinct WHERE programs, flag
// evaluations and selection classes of the branches, bound to the
// snapshot once and read by every worker.
type sharedScan struct {
	t *colSnap
	// wanted is the projection mask the residual evaluations see: the
	// columns any branch scans.
	wanted []bool
	// wheres holds one bound program per distinct WHERE; flags one per
	// distinct (WHERE, flag predicate) pair, since a flag is evaluated
	// only on the rows its WHERE kept; classes one per distinct (WHERE,
	// flag list), the unit that shares selected rows and the flags'
	// share of the group id.
	wheres   []*boundSel
	flags    []flagEval
	classes  []selClass
	branches []scanBranch
}

// flagEval is one flag predicate (key is its SQL) evaluated under one
// WHERE (-1: none).
type flagEval struct {
	where int
	key   string
	sel   *boundSel
}

// selClass is a WHERE (-1: none) and a list of flags (indices into
// sharedScan.flags), in GROUP BY order.
type selClass struct {
	where int
	flags []int
}

// scanBranch is one branch of a shared scan: its plan, fast-path
// analysis, group-id layout and selection class.
type scanBranch struct {
	p     *plan
	v     *vecInfo
	lay   *vecLayout
	class int
}

// newSharedScan lays out every branch and binds the distinct predicates.
// ok=false reports a branch whose id space is beyond maxGroupIDSpace;
// err is the context's, should it end a layout pre-pass.
func newSharedScan(ctx context.Context, branches []*plan, t *colSnap, lo, hi int, res *vecRun) (sh *sharedScan, ok bool, err error) {
	sh = &sharedScan{t: t, branches: make([]scanBranch, len(branches))}
	var scanCols []int
	for b, p := range branches {
		lay, ok, err := p.vec.layout(ctx, t, lo, hi)
		if !ok {
			return nil, false, err
		}
		sh.branches[b] = scanBranch{p: p, v: p.vec, lay: lay}
		scanCols = append(scanCols, p.scanCols...)
	}
	sh.wanted = t.wantedMask(scanCols)

	// Distinct programs are found by their SQL text and bound once, so
	// each counts once in the kernel and residual totals. A statement has
	// a few of each, so a linear search finds them.
	bind := func(prog *selProg) *boundSel {
		res.kernels += prog.kernelCount()
		res.residuals += prog.residualCount()
		return prog.bind(t)
	}
	var whereKeys []string
	for b := range sh.branches {
		br := &sh.branches[b]
		cls := selClass{where: -1}
		if br.v.filterSel != nil {
			cls.where = slices.Index(whereKeys, br.v.whereKey)
			if cls.where < 0 {
				cls.where = len(sh.wheres)
				whereKeys = append(whereKeys, br.v.whereKey)
				sh.wheres = append(sh.wheres, bind(br.v.filterSel))
			}
		}
		for _, g := range br.v.groups {
			if g.kind != vecGroupFlag {
				continue
			}
			f := slices.IndexFunc(sh.flags, func(fe flagEval) bool { return fe.where == cls.where && fe.key == g.flagKey })
			if f < 0 {
				f = len(sh.flags)
				sh.flags = append(sh.flags, flagEval{where: cls.where, key: g.flagKey, sel: bind(g.flagSel)})
			}
			cls.flags = append(cls.flags, f)
		}
		br.class = slices.IndexFunc(sh.classes, func(c selClass) bool { return c.where == cls.where && slices.Equal(c.flags, cls.flags) })
		if br.class < 0 {
			br.class = len(sh.classes)
			sh.classes = append(sh.classes, cls)
		}
	}
	return sh, true, nil
}

// runVec executes the fast path for branches — every one a vectorized
// plan over the table t is a snapshot of — as one scan of [lo, hi) with
// opts.Workers workers. Per block, each distinct WHERE and each distinct
// flag is evaluated once, and each branch then folds the rows of its
// class into its own groups. ran reports whether the fast path was
// applicable at runtime, which is decided before any worker starts;
// when false the caller runs the branches another way.
func runVec(branches []*plan, t *colSnap, opts ExecOptions, lo, hi int) (res *vecRun, ran bool, err error) {
	lo, hi = clampRange(lo, hi, t.rows)
	res = &vecRun{}
	sh, ok, err := newSharedScan(opts.Ctx, branches, t, lo, hi, res)
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
	res.workers = workers

	scans := make([]*chunkScan, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cLo := lo + w*(hi-lo)/workers
		cHi := lo + (w+1)*(hi-lo)/workers
		wg.Add(1)
		go func(w, cLo, cHi int) {
			defer wg.Done()
			scans[w] = newChunkScan(sh)
			errs[w] = scans[w].scan(opts.Ctx, cLo, cHi)
		}(w, cLo, cHi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, true, e
		}
	}

	res.entries, res.scanned = make([][]*groupEntry, len(branches)), hi-lo
	keys := make([]string, len(branches))
	for b := range branches {
		for _, o := range scans[1:] {
			scans[0].mergeAcc(b, o)
		}
		res.entries[b] = scans[0].materialize(b)
		keys[b] = sh.branches[b].lay.describe(sh.branches[b].v)
	}
	res.keys = strings.Join(keys, ";")
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

// chunkScan is one worker's scan of one contiguous row chunk for every
// branch: the per-block vectors every stage reads and writes, and each
// branch's accumulators.
type chunkScan struct {
	sh *sharedScan
	// view is the row the residual evaluations see; rowView is &view
	// boxed once, so handing it to an evalFn does not allocate.
	view    colRowView
	rowView RowView

	// Per-block state of the shared stages: per WHERE its kernels'
	// verdict and its selected rows, per flag evaluation its bitmap, and
	// per class its selected rows and the flags' share of each row's
	// group id. scratch backs the disjunction kernels.
	wheres  []whereBlock
	flags   [][selBlockRows]bool
	classes []classBlock
	scratch [2 * selBlockRows]bool
	// Per-branch block vectors, reused branch after branch: gids and
	// slots run parallel to the class's selected rows.
	gids  [selBlockRows]uint64
	slots [selBlockRows]int32

	index []*gidIndex // per branch
	acc   []groupAcc  // per branch
}

// whereBlock is one WHERE's verdict over the current block.
type whereBlock struct {
	sel  [selBlockRows]bool
	rows [selBlockRows]int32
	kept []int32
}

// classBlock is one class's view of the current block: its selected
// rows and, when it has flags, their share of each row's group id.
type classBlock struct {
	rows []int32
	base [selBlockRows]uint64
}

// newChunkScan sets up one worker's scan state.
func newChunkScan(sh *sharedScan) *chunkScan {
	s := &chunkScan{
		sh:      sh,
		view:    colRowView{t: sh.t, wanted: sh.wanted},
		wheres:  make([]whereBlock, len(sh.wheres)),
		flags:   make([][selBlockRows]bool, len(sh.flags)),
		classes: make([]classBlock, len(sh.classes)),
		index:   make([]*gidIndex, len(sh.branches)),
		acc:     make([]groupAcc, len(sh.branches)),
	}
	s.rowView = &s.view
	for b := range sh.branches {
		br := &sh.branches[b]
		s.index[b] = newGIDIndex(br.lay.idSpace)
		s.acc[b].init(br.p.aggs, br.lay.idSpace)
	}
	return s
}

// scan accumulates rows [lo, hi) block by block for every branch.
func (s *chunkScan) scan(ctx context.Context, lo, hi int) error {
	for blockLo := lo; blockLo < hi; blockLo += selBlockRows {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		blockHi := min(blockLo+selBlockRows, hi)
		for w := range s.wheres {
			s.selectRows(w, blockLo, blockHi)
		}
		for f := range s.flags {
			s.flagBits(f, blockLo, blockHi)
		}
		for c := range s.classes {
			s.classRows(c, blockLo, blockHi)
		}
		for b := range s.sh.branches {
			br := &s.sh.branches[b]
			cls := &s.classes[br.class]
			rows := cls.rows
			if len(rows) == 0 {
				continue
			}
			// The class's flag share is the id so far; the branch adds
			// its key columns' shares to a copy.
			gids := s.gids[:len(rows)]
			copy(gids, cls.base[:len(rows)])
			s.groupIDs(b, blockLo, blockHi, rows, gids)
			s.accumulate(b, blockLo, blockHi, rows, s.resolveSlots(b, gids))
		}
	}
	return nil
}

// selectRows is stage 1 for WHERE w: it leaves in s.wheres[w].kept the
// block-relative indices of the rows of [lo, hi) that pass it,
// ascending, and in its sel the kernels' verdict (before residuals) for
// the flag kernels to seed from.
func (s *chunkScan) selectRows(w, lo, hi int) {
	n := hi - lo
	wb := &s.wheres[w]
	sel := wb.sel[:n]
	fillRange(sel, n)
	f := s.sh.wheres[w]
	f.apply(lo, hi, sel, s.scratch[:])
	rows := wb.rows[:n]
	k := 0
	for i, keep := range sel {
		rows[k] = int32(i)
		if keep {
			k++
		}
	}
	wb.kept = s.keepTruthy(rows[:k], lo, f.residual)
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

// selected returns the rows WHERE w (-1: none) kept in the current block
// of n rows.
func (s *chunkScan) selected(w, n int) []int32 {
	if w < 0 {
		return identRows[:n]
	}
	return s.wheres[w].kept
}

// flagBits evaluates flag f over the block into s.flags[f], a bitmap
// that holds the predicate's truth at every row its WHERE selected.
func (s *chunkScan) flagBits(f, lo, hi int) {
	n := hi - lo
	fe := &s.sh.flags[f]
	flag := s.flags[f][:n]
	// Seed from the WHERE's verdict so the flag kernels skip rows the
	// WHERE kernels already rejected.
	if fe.where >= 0 {
		copy(flag, s.wheres[fe.where].sel[:n])
	} else {
		fillRange(flag, n)
	}
	fe.sel.apply(lo, hi, flag, s.scratch[:])
	if len(fe.sel.residual) == 0 {
		return
	}
	for _, r := range s.selected(fe.where, n) {
		if !flag[r] {
			continue
		}
		s.view.row = lo + int(r)
		for _, fn := range fe.sel.residual {
			if !fn(s.rowView).Truthy() {
				flag[r] = false
				break
			}
		}
	}
}

// classRows sets class c's selected rows for the block and the flags'
// share of their group ids: flag k of the class has stride 2^k in every
// branch's layout.
func (s *chunkScan) classRows(c, lo, hi int) {
	cls, cb := &s.sh.classes[c], &s.classes[c]
	cb.rows = s.selected(cls.where, hi-lo)
	base := cb.base[:len(cb.rows)]
	clear(base)
	for k, f := range cls.flags {
		// Load, conditionally add, store: unlike a conditional += this
		// compiles without a branch, and the flag is data no predictor
		// learns.
		stride, flag := uint64(1)<<k, &s.flags[f]
		for j, r := range cb.rows {
			gid := base[j]
			if flag[r] {
				gid += stride
			}
			base[j] = gid
		}
	}
}

// nullsIn returns c's NULL markers for rows [lo, hi), or nil when the
// column has none — the one null-ness test a block loop hoists.
func nullsIn(c *columnVector, lo, hi int) []bool {
	if c.nulls == nil {
		return nil
	}
	return c.nulls[lo:hi]
}

// groupIDs is stage 2 for branch b: it adds to gids[j], which holds the
// flags' share already, the share of every other GROUP BY column of
// selected row rows[j], one pass per column.
func (s *chunkScan) groupIDs(b, lo, hi int, rows []int32, gids []uint64) {
	br := &s.sh.branches[b]
	for i := range br.v.groups {
		if br.v.groups[i].kind == vecGroupFlag {
			continue
		}
		k := s.key(br, i, lo, hi)
		if k.c32 != nil {
			addCodeIDs(gids, rows, k.c32, k.nulls, 0, k.stride)
		} else {
			addCodeIDs(gids, rows, k.c64, k.nulls, k.base, k.stride)
		}
	}
}

// keyCodes is one GROUP BY column's codes over a block: its share of a
// row's id is (code − base + 1)·stride, and 0 for NULL. Exactly one of
// c32 (dictionary codes) and c64 (bools and range-coded ints) is set.
type keyCodes struct {
	c32    []int32
	c64    []int64
	nulls  []bool
	base   int64
	stride uint64
}

// key returns GROUP BY column i of branch br over the block [lo, hi).
func (s *chunkScan) key(br *scanBranch, i, lo, hi int) keyCodes {
	g, stride := &br.v.groups[i], br.lay.strides[i]
	c := &s.sh.t.cols[g.col]
	nulls := nullsIn(c, lo, hi)
	switch {
	case g.kind == vecGroupDict:
		return keyCodes{c32: c.codes[lo:hi], nulls: nulls, stride: stride}
	case g.kind == vecGroupBool:
		// Stored 0/1, so false and true are the range code over base 0.
		return keyCodes{c64: c.ints[lo:hi], nulls: nulls, stride: stride}
	case br.lay.codes[i] != nil:
		return keyCodes{c32: br.lay.codes[i][lo-br.lay.lo : hi-br.lay.lo], nulls: nulls, stride: stride}
	default: // range-coded int
		return keyCodes{c64: c.ints[lo:hi], nulls: nulls, base: br.lay.base[i], stride: stride}
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

// resolveSlots is stage 3 for branch b: it turns each selected row's
// group id into its accumulator slot; an id not seen before in this
// chunk takes the next one — ids are visited in row order, so slots are
// in first-seen order.
func (s *chunkScan) resolveSlots(b int, gids []uint64) []int32 {
	index, acc := s.index[b], &s.acc[b]
	slots := s.slots[:len(gids)]
	if dense := index.dense; dense != nil {
		for j, gid := range gids {
			slot := dense[gid]
			if slot < 0 {
				slot = acc.addGroup(gid)
				dense[gid] = slot
			}
			slots[j] = slot
		}
		return slots
	}
	for j, gid := range gids {
		slot, ok := index.sparse[gid]
		if !ok {
			slot = acc.addGroup(gid)
			index.sparse[gid] = slot
		}
		slots[j] = slot
	}
	return slots
}

// accumulate is stage 4 for branch b: it counts each group's rows,
// then one typed loop per aggregate slot folds the selected rows into
// the accumulators of their groups. A count the row count already gives
// — COUNT(*), and COUNT(x), SUM(x) or AVG(x) over a column without NULL
// markers — is not counted again (see rowCounted).
func (s *chunkScan) accumulate(b, lo, hi int, rows, slots []int32) {
	br, acc := &s.sh.branches[b], &s.acc[b]
	rows = rows[:len(slots)]
	for _, g := range slots {
		acc.rows[g]++
	}
	for ai := range br.p.aggs {
		a := &br.p.aggs[ai]
		if br.v.countOf[ai] >= 0 || a.kind == aggCountStar {
			continue // materialize copies the count from the summing slot or the rows
		}
		ints, flts, seen := acc.slot(ai)
		c := &s.sh.t.cols[a.argCol]
		nulls := nullsIn(c, lo, hi)
		switch {
		case a.kind == aggCount:
			if nulls == nil {
				continue // the rows are the count
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

// rowCounted reports whether aggregate a's count is its group's row
// count in this snapshot: COUNT(*), or a count over a column that has no
// NULL markers.
func rowCounted(a *aggSpec, t *colSnap) bool {
	return a.kind == aggCountStar || t.cols[a.argCol].nulls == nil
}

// foldSum adds the non-NULL xs of the selected rows into their groups'
// sums. With NULL markers it counts the values too; without, the
// group's row count is their count.
func foldSum[T int64 | float64](count []int64, sum []float64, slots, rows []int32, xs []T, nulls []bool) {
	if nulls == nil {
		for j, g := range slots {
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
// segment. rows[g] counts the rows group slot g folded. What a cell
// means depends on the aggregate:
//
//	COUNT(*)             unused: the count is rows
//	COUNT(x)             ints = rows counted (unused when rowCounted)
//	SUM(x), AVG(x)       ints = values summed (unused when rowCounted),
//	                     flts = their sum
//	MIN(x), MAX(x)       seen = has a value; the running extreme is in
//	                     flts for a float x, in ints for an int or bool x
type groupAcc struct {
	nAggs  int
	minMax bool     // some aggregate is a MIN or MAX, so seen is kept
	cap    int      // group slots each segment has room for
	gids   []uint64 // group id per slot, in first-seen order
	rows   []int64
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
	rows := make([]int64, cap)
	copy(rows, a.rows[:n])
	a.rows = rows
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
func (s *chunkScan) materialize(b int) []*groupEntry {
	br, acc := &s.sh.branches[b], &s.acc[b]
	n, nAggs, nKeys := len(acc.gids), len(br.p.aggs), len(br.v.groups)
	entries := make([]groupEntry, n)
	states := make([]aggState, n*nAggs)
	keys := make([]Value, n*nKeys)
	out := make([]*groupEntry, n)
	for g, gid := range acc.gids {
		e := &entries[g]
		e.keys = keys[g*nKeys : (g+1)*nKeys : (g+1)*nKeys]
		e.states = states[g*nAggs : (g+1)*nAggs : (g+1)*nAggs]
		br.v.decodeKeys(e.keys, s.sh.t, gid, br.lay)
		out[g] = e
	}
	for ai := range br.p.aggs {
		a := &br.p.aggs[ai]
		src := ai
		if of := br.v.countOf[ai]; of >= 0 {
			src = of
		}
		ints, flts, seen := acc.slot(src)
		if a.kind != aggMin && a.kind != aggMax && rowCounted(a, s.sh.t) {
			ints = acc.rows
		}
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
	return out
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

// mergeAcc folds worker o's accumulators of branch b into s's. Group
// ids are global, and o's chunk follows s's, so appending o's unseen
// groups in o's first-seen order keeps the first-seen order of a
// sequential scan; a group both saw merges cell by cell, s's value
// first: counts and sums add, and o's MIN or MAX replaces s's only when
// strictly beyond it.
func (s *chunkScan) mergeAcc(b int, o *chunkScan) {
	aggs, dst, src, index := s.sh.branches[b].p.aggs, &s.acc[b], &o.acc[b], s.index[b]
	for g, gid := range src.gids {
		d := index.get(gid)
		fresh := d < 0
		if fresh {
			d = dst.addGroup(gid)
			index.put(gid, d)
		}
		dst.rows[d] += src.rows[g]
		for ai := range aggs {
			di, df, ds := dst.slot(ai)
			si, sf, ss := src.slot(ai)
			switch kind := aggs[ai].kind; {
			case fresh:
				di[d], df[d] = si[g], sf[g]
				if ds != nil {
					ds[d] = ss[g]
				}
			case kind != aggMin && kind != aggMax:
				di[d] += si[g]
				df[d] += sf[g]
			case !ss[g]:
				// o saw no value: s's extreme stands.
			default:
				typ := aggs[ai].argType
				x, cur := extremeOf(typ, si[g], sf[g]), extremeOf(typ, di[d], df[d])
				if !ds[d] || (kind == aggMin && x < cur) || (kind == aggMax && x > cur) {
					di[d], df[d], ds[d] = si[g], sf[g], true
				}
			}
		}
	}
}

// extremeOf is a MIN or MAX cell's value as foldExtreme compares it.
func extremeOf(typ ColumnType, i int64, f float64) float64 {
	if typ == TypeFloat {
		return f
	}
	return float64(i)
}
