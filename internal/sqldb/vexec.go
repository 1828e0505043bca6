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
//       1. Selection. The compilable WHERE conjuncts run as selection
//          kernels over the block (predsel.go); conjuncts outside the
//          kernel grammar evaluate through their original closures on the
//          rows the kernels kept (the hybrid residual filter — a query
//          never falls back whole because one conjunct is exotic). The
//          survivors become a vector of block-relative row indices.
//       2. Group ids. One loop per GROUP BY column adds id·stride into a
//          vector of combined group ids — the mixed-radix combination of
//          per-column dictionary codes (strings), tri-state bool codes,
//          the CASE flag (its predicate again kernels + residuals), and
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
//   - Int GROUP BY columns whose value span over [lo, hi) keeps the whole
//     id space within denseGroupIDCap are range-coded: id = v − min + 1,
//     with the bounds taken by a stateless pre-pass over the range. Like
//     dictionary strings they are static, dense and need no remapping at
//     the merge. Float columns and wider ints get a per-worker runtime
//     value dictionary (numDict, bounded by the query's share of
//     maxGroupIDSpace) whose worker-local codes the merge remaps onto a
//     global dictionary.
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
//   - Context cancellation is checked once per block inside each worker,
//     so large scans stay cancellable.
//
// Queries outside the shape (row stores, expression group keys or
// aggregate arguments, DISTINCT aggregates, string MIN/MAX, group-id
// spaces that overflow) fall back to the row interpreter, and the
// reason is reported in ExecStats.FallbackReason. HAVING, ORDER BY,
// projection, DISTINCT, LIMIT and OFFSET need no analysis here: they
// operate on the finalized groups, shared with the serial path.

import (
	"context"
	"errors"
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
// the fast path declines (runtime fallback to the interpreter).
const maxGroupIDSpace = 1 << 40

// maxNumDictRadix caps the per-column radix reserved for a runtime
// numeric group-key dictionary: a dimension with more distinct values
// than this is effectively continuous and belongs to the interpreter.
const maxNumDictRadix = 1 << 20

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
	fallbackDistinctAgg   = "distinct agg"
	fallbackExprAgg       = "expression agg argument"
	fallbackNonNumericAgg = "non-numeric agg argument"
)

// errGroupIDSpace signals a mid-scan group-id-space overflow (a runtime
// numeric dictionary outgrew its radix); the fast path declines and the
// caller retries on the row interpreter.
var errGroupIDSpace = errors.New("sqldb: group-id space overflow")

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
	// either v − min + 1 (a range-coded int) or a runtime
	// value-dictionary code + 1 (per worker, remapped at merge). Which
	// one is decided per execution, see vecLayout.
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
	pred         evalFn     // flag predicate closure (flag only)
	flagSel      *selProg   // compiled flag predicate, nil → closure only
	thenV, elseV int64      // flag arm values (flag only)
}

// vecInfo is the compile-time fast-path analysis of a grouped plan. The
// aggregate slots reuse plan.aggs (argCol/argType are validated here).
type vecInfo struct {
	groups []vecGroup
	// filterSel is the compiled WHERE predicate (nil when the query has
	// no WHERE clause or its compilation failed defensively).
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
			pred, err := compileScalar(e.Whens[0].Cond, schema)
			if err != nil {
				return nil, fallbackCaseShape
			}
			flagSel, err := compileSelection(e.Whens[0].Cond, schema)
			if err != nil {
				flagSel = nil // defensive: closure path still works
			}
			v.groups = append(v.groups, vecGroup{
				kind: vecGroupFlag, pred: pred, flagSel: flagSel,
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
		sel, err := compileSelection(stmt.Where, schema)
		if err == nil {
			v.filterSel = sel
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
	// ranged marks the int group columns coded by value range, and base
	// holds the value their id 1 stands for (id = v − base + 1).
	ranged []bool
	base   []int64
	// dictGroups indexes the numeric group columns on runtime value
	// dictionaries — the only ids that are worker-local.
	dictGroups []int
}

// layout lays out the group id for a scan of [lo, hi). Static
// cardinalities come from the live table (dictionary sizes); int columns
// are range-coded while the id space stays dense; the remaining numeric
// columns share the leftover id-space budget as their runtime-dictionary
// radix. ok=false reports an id space beyond maxGroupIDSpace.
func (v *vecInfo) layout(t *colSnap, lo, hi int) (lay *vecLayout, ok bool) {
	n := len(v.groups)
	lay = &vecLayout{
		cards: make([]uint64, n), strides: make([]uint64, n),
		ranged: make([]bool, n), base: make([]int64, n),
	}
	space := uint64(1)
	for i, g := range v.groups {
		var card uint64
		switch g.kind {
		case vecGroupDict:
			card = uint64(len(t.cols[g.col].dict)) + 1 // +1 for NULL
		case vecGroupBool:
			card = 3
		case vecGroupFlag:
			card = 2
		case vecGroupNum:
			continue // assigned below
		}
		lay.cards[i] = card
		if space > maxGroupIDSpace/card {
			return nil, false
		}
		space *= card
	}
	for _, i := range v.numGroups {
		g := &v.groups[i]
		if g.typ == TypeInt {
			if base, card, fits := intRangeCard(&t.cols[g.col], lo, hi, denseGroupIDCap/space); fits {
				lay.ranged[i], lay.base[i], lay.cards[i] = true, base, card
				space *= card
				continue
			}
		}
		lay.dictGroups = append(lay.dictGroups, i)
	}
	if n := len(lay.dictGroups); n > 0 {
		radix := nthRootFloor(maxGroupIDSpace/space, n)
		if radix > maxNumDictRadix {
			radix = maxNumDictRadix
		}
		if radix < 2 {
			return nil, false
		}
		for _, i := range lay.dictGroups {
			lay.cards[i] = radix
		}
	}
	lay.idSpace = 1
	for i, card := range lay.cards {
		lay.strides[i] = lay.idSpace
		if lay.idSpace > maxGroupIDSpace/card {
			return nil, false
		}
		lay.idSpace *= card
	}
	return lay, true
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
		case lay.ranged[i]:
			names[i] = "range"
		default:
			names[i] = "numdict"
		}
	}
	return strings.Join(names, ",")
}

// numDict is one worker's runtime value dictionary for a numeric group
// column: value identity bits → 1-based code (0 is reserved for NULL),
// bounded by the column's radix in the mixed-radix id space.
type numDict struct {
	ids   map[uint64]uint32
	order []uint64 // bits in first-seen order; code = index+1
	radix uint64   // codes must stay < radix

	lastBits uint64 // one-entry cache: runs of equal values skip the map
	lastID   uint32
	hasLast  bool
}

// newNumDict creates an empty dictionary with the given radix.
func newNumDict(radix uint64) *numDict {
	return &numDict{ids: make(map[uint64]uint32), radix: radix}
}

// idFor returns the code for the value bits, allocating the next code on
// first sight. ok=false reports radix overflow.
func (d *numDict) idFor(bits uint64) (uint32, bool) {
	if d.hasLast && d.lastBits == bits {
		return d.lastID, true
	}
	id, ok := d.ids[bits]
	if !ok {
		next := uint64(len(d.order)) + 1
		if next >= d.radix {
			return 0, false
		}
		id = uint32(next)
		d.ids[bits] = id
		d.order = append(d.order, bits)
	}
	d.lastBits, d.lastID, d.hasLast = bits, id, true
	return id, true
}

// vecPartial is one worker's accumulated chunk state: entries in the
// chunk's first-seen order, with the group id of each entry alongside,
// plus the worker-local numeric dictionaries the merge remaps from.
type vecPartial struct {
	entries []*groupEntry
	gids    []uint64
	dicts   []*numDict // indexed like vecInfo.groups; nil for non-dictionary groups
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
	residuals int // predicate conjuncts left on the closure path
}

// nthRootFloor returns the largest r with r^n <= b (n >= 1).
func nthRootFloor(b uint64, n int) uint64 {
	if n == 1 {
		return b
	}
	r := uint64(math.Pow(float64(b), 1/float64(n)))
	for r > 0 && !powFits(r, n, b) {
		r--
	}
	for powFits(r+1, n, b) {
		r++
	}
	return r
}

// powFits reports r^n <= b without overflowing.
func powFits(r uint64, n int, b uint64) bool {
	if r == 0 {
		return true
	}
	p := uint64(1)
	for i := 0; i < n; i++ {
		if p > b/r {
			return false
		}
		p *= r
	}
	return p <= b
}

// run executes the fast path over [lo, hi) with opts.Workers workers.
// ran reports whether the fast path was applicable at runtime; when
// false the caller must use the row interpreter.
func (v *vecInfo) run(p *plan, t *colSnap, opts ExecOptions, lo, hi int) (res *vecRun, ran bool, err error) {
	lo, hi = clampRange(lo, hi, t.rows)
	lay, ok := v.layout(t, lo, hi)
	if !ok {
		return nil, false, nil
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
	var boundFilter *boundSel
	boundFlags := make([]*boundSel, len(v.groups))
	// An all-residual program would just re-run the whole predicate
	// through closures with bitmap bookkeeping on top; bind only when
	// at least one conjunct actually compiled. Residual conjuncts are
	// counted either way — they run on the closure path regardless of
	// whether that is per-conjunct (bound) or whole-predicate.
	if p.filter != nil && v.filterSel != nil {
		res.residuals += v.filterSel.residualCount()
		if v.filterSel.kernelCount() > 0 {
			boundFilter = v.filterSel.bind(t)
			res.kernels += v.filterSel.kernelCount()
		}
	}
	for i := range v.groups {
		g := &v.groups[i]
		if g.kind != vecGroupFlag || g.flagSel == nil {
			continue
		}
		res.residuals += g.flagSel.residualCount()
		if g.flagSel.kernelCount() > 0 {
			boundFlags[i] = g.flagSel.bind(t)
			res.kernels += g.flagSel.kernelCount()
		}
	}

	// The same projection mask the row interpreter would use, shared
	// read-only by every worker's residual/closure evaluations.
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
		if errors.Is(e, errGroupIDSpace) {
			return nil, false, nil
		}
		if e != nil {
			return nil, false, e
		}
	}

	entries, scanned, ok := v.merge(p, parts, lay)
	if !ok {
		return nil, false, nil
	}
	res.entries, res.scanned = entries, scanned
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
	filter *boundSel   // bound WHERE kernels, nil → closure or no filter
	flags  []*boundSel // bound flag kernels per group column, nil → closure
	// view is the row the residual and closure evaluations see; rowView
	// is &view boxed once, so handing it to an evalFn does not allocate.
	view    colRowView
	rowView RowView

	// Block vectors, reused across blocks. sel, scratch and flag are
	// bitmaps over the block's rows; rows lists the selected rows as
	// block-relative indices; gids and slots run parallel to rows.
	sel, scratch, flag [selBlockRows]bool
	rows, slots        [selBlockRows]int32
	gids               [selBlockRows]uint64

	index *gidIndex
	dicts []*numDict // indexed like vecInfo.groups; nil unless dictionary-coded
	acc   groupAcc
}

// newChunkScan sets up one worker's scan state.
func newChunkScan(v *vecInfo, p *plan, t *colSnap, lay *vecLayout, wanted []bool, filter *boundSel, flags []*boundSel) *chunkScan {
	s := &chunkScan{
		v: v, p: p, t: t, lay: lay, filter: filter, flags: flags,
		view:  colRowView{t: t, wanted: wanted},
		index: newGIDIndex(lay.idSpace),
	}
	if len(lay.dictGroups) > 0 {
		s.dicts = make([]*numDict, len(v.groups))
		for _, i := range lay.dictGroups {
			s.dicts[i] = newNumDict(lay.cards[i])
		}
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
		if err := s.groupIDs(blockLo, blockHi, rows, gids); err != nil {
			return nil, err
		}
		s.accumulate(blockLo, blockHi, rows, s.resolveSlots(gids))
	}
	return s.materialize(hi - lo), nil
}

// selectRows is stage 1: it returns the block-relative indices of the
// rows of [lo, hi) that pass the WHERE clause, ascending. When kernels
// ran, s.sel holds their verdict (before residuals) for the flag kernels
// to seed from.
func (s *chunkScan) selectRows(lo, hi int) []int32 {
	n := hi - lo
	switch {
	case s.filter != nil:
		sel := s.sel[:n]
		fillRange(sel, n)
		s.filter.apply(lo, hi, sel, s.scratch[:n])
		rows := s.rows[:n]
		k := 0
		for i, keep := range sel {
			rows[k] = int32(i)
			if keep {
				k++
			}
		}
		return s.keepTruthy(rows[:k], lo, s.filter.residual)
	case s.p.filter != nil:
		rows := s.rows[:0]
		for i := 0; i < n; i++ {
			s.view.row = lo + i
			if s.p.filter(s.rowView).Truthy() {
				rows = append(rows, int32(i))
			}
		}
		return rows
	default:
		return identRows[:n]
	}
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
func (s *chunkScan) groupIDs(lo, hi int, rows []int32, gids []uint64) error {
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
		case s.lay.ranged[i]:
			c := &s.t.cols[g.col]
			addCodeIDs(gids, rows, c.ints[lo:hi], nullsIn(c, lo, hi), s.lay.base[i], stride)
		default:
			c, dict := &s.t.cols[g.col], s.dicts[i]
			nulls := nullsIn(c, lo, hi)
			for j, r := range rows {
				if nulls != nil && nulls[r] {
					continue
				}
				code, ok := dict.idFor(groupKeyBits(c, g.typ, lo+int(r)))
				if !ok {
					return errGroupIDSpace
				}
				gids[j] += uint64(code) * stride
			}
		}
	}
	return nil
}

// addCodeIDs adds one column's share of the group id for codes that are
// already small integers — dictionary codes, bools, range-coded ints:
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
	if bf == nil {
		pred := s.v.groups[i].pred
		for _, r := range rows {
			s.view.row = lo + int(r)
			flag[r] = pred(s.rowView).Truthy()
		}
		return flag
	}
	// Seed from the filter's verdict so the flag kernels skip rows the
	// filter kernels already rejected.
	if s.filter != nil {
		copy(flag, s.sel[:n])
	} else {
		fillRange(flag, n)
	}
	bf.apply(lo, hi, flag, s.scratch[:n])
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
	part := &vecPartial{entries: make([]*groupEntry, n), gids: s.acc.gids, dicts: s.dicts, scanned: scanned}
	for g, gid := range s.acc.gids {
		e := &entries[g]
		e.keys = keys[g*nKeys : (g+1)*nKeys : (g+1)*nKeys]
		e.states = states[g*nAggs : (g+1)*nAggs : (g+1)*nAggs]
		s.v.decodeKeys(e.keys, s.t, gid, s.lay, s.dicts)
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
// have produced for the row(s) behind a combined group id. dicts
// supplies the worker-local numeric dictionaries (nil entries for the
// other groups).
func (v *vecInfo) decodeKeys(keys []Value, t *colSnap, gid uint64, lay *vecLayout, dicts []*numDict) {
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
		case lay.ranged[i]:
			keys[i] = Int(lay.base[i] + int64(id-1))
		case g.typ == TypeFloat:
			keys[i] = Float(math.Float64frombits(dicts[i].order[id-1]))
		default:
			keys[i] = Int(int64(dicts[i].order[id-1]))
		}
	}
}

// merge folds worker partials together in chunk order. Because chunks
// are contiguous and ordered, appending each chunk's unseen groups in
// its own first-seen order reproduces the first-seen order of a
// sequential scan. Dictionary-coded numeric group keys are worker-local,
// so the merge remaps them onto a global dictionary before comparing
// ids; ok=false reports a (theoretical) global id-space overflow, which
// sends the query to the row interpreter.
func (v *vecInfo) merge(p *plan, parts []*vecPartial, lay *vecLayout) (entries []*groupEntry, scanned int, ok bool) {
	if len(parts) == 1 {
		return parts[0].entries, parts[0].scanned, true
	}
	if len(lay.dictGroups) == 0 {
		return v.mergeStatic(p, parts, lay.idSpace), totalScanned(parts), true
	}

	// Pass 1: build global numeric dictionaries (walking partials in
	// chunk order keeps the assignment deterministic) and per-partial
	// code remap tables.
	globalIDs := make([]map[uint64]uint32, len(v.groups))
	for _, i := range lay.dictGroups {
		globalIDs[i] = make(map[uint64]uint32)
	}
	remaps := make([][][]uint32, len(parts)) // [part][group] local code+null → global
	for pi, part := range parts {
		remaps[pi] = make([][]uint32, len(v.groups))
		for _, i := range lay.dictGroups {
			local := part.dicts[i]
			rm := make([]uint32, len(local.order)+1)
			for j, bits := range local.order {
				gIDs := globalIDs[i]
				gid, seen := gIDs[bits]
				if !seen {
					gid = uint32(len(gIDs)) + 1
					gIDs[bits] = gid
				}
				rm[j+1] = gid
			}
			remaps[pi][i] = rm
		}
	}

	// Global mixed-radix layout with the exact merged cardinalities.
	gCards := append([]uint64(nil), lay.cards...)
	for _, i := range lay.dictGroups {
		gCards[i] = uint64(len(globalIDs[i])) + 1
	}
	gStrides := make([]uint64, len(v.groups))
	gSpace := uint64(1)
	for i, card := range gCards {
		gStrides[i] = gSpace
		if gSpace > maxGroupIDSpace/card {
			return nil, 0, false
		}
		gSpace *= card
	}

	// Pass 2: the usual chunk-order merge, on remapped global ids.
	index := newGIDIndex(gSpace)
	var out []*groupEntry
	for pi, part := range parts {
		scanned += part.scanned
		for j, e := range part.entries {
			gid := part.gids[j]
			ggid := uint64(0)
			for i := range v.groups {
				id := (gid / lay.strides[i]) % lay.cards[i]
				if rm := remaps[pi][i]; rm != nil {
					id = uint64(rm[id])
				}
				ggid += id * gStrides[i]
			}
			slot := index.get(ggid)
			if slot < 0 {
				slot = int32(len(out))
				out = append(out, e)
				index.put(ggid, slot)
				continue
			}
			dst := out[slot].states
			for ai := range p.aggs {
				dst[ai].merge(&p.aggs[ai], &e.states[ai])
			}
		}
	}
	return out, scanned, true
}

// mergeStatic merges partials whose group ids are already globally
// comparable (no runtime dictionaries involved).
func (v *vecInfo) mergeStatic(p *plan, parts []*vecPartial, idSpace uint64) []*groupEntry {
	index := newGIDIndex(idSpace)
	var out []*groupEntry
	for _, part := range parts {
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
	return out
}

// totalScanned sums the partials' visited-row counts.
func totalScanned(parts []*vecPartial) int {
	n := 0
	for _, p := range parts {
		n += p.scanned
	}
	return n
}
