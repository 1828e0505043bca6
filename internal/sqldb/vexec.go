package sqldb

// Parallel vectorized aggregation fast path.
//
// The dominant SeeDB query shape — GROUP BY one or more dimension columns
// (plus, for the combined target/reference rewrite, a CASE-WHEN flag over
// the target predicate), aggregating SUM/COUNT/AVG/MIN/MAX over measure
// columns — spends almost all of its time in the row interpreter's
// per-row closure calls, group-key string encoding and map lookups. This
// file replaces that inner loop for column-store tables:
//
//   - The row range [lo, hi) is partitioned into one contiguous chunk per
//     worker. Chunk boundaries are a pure function of (lo, hi, workers),
//     so execution is deterministic regardless of scheduling.
//   - Each worker scans the referenced column vectors directly, in blocks
//     of selBlockRows rows. WHERE predicates and CASE-flag predicates of
//     compilable shape run as selection kernels over each block (see
//     predsel.go); conjuncts outside the kernel grammar evaluate per row
//     through their original closures, restricted to rows the kernels
//     kept (the hybrid residual filter) — a query never falls back whole
//     because one conjunct is exotic.
//   - Group identity is a small integer — the mixed-radix combination of
//     per-column dictionary codes (strings), tri-state bool codes, the
//     CASE flag, and runtime value-dictionary codes for int/float
//     dimensions — instead of a per-row encoded string key. Numeric
//     dimensions get a per-worker dictionary built during the scan
//     (bounded by the query's share of maxGroupIDSpace); the merge
//     remaps worker-local codes onto a global dictionary. Dense group-id
//     spaces use a flat lookup table; larger ones an integer map, never
//     a string map.
//   - MIN/MAX accumulate through typed comparisons on the column vectors
//     (no Value construction per row); SUM/COUNT/AVG accumulate into
//     typed fields as before.
//   - Workers accumulate private aggState tables (first-seen order within
//     the chunk) that merge in chunk order, which reproduces exactly the
//     first-seen group order of a sequential scan. Results are therefore
//     identical to the serial interpreter, with one caveat family:
//     SUM/AVG reassociate floating-point addition across chunks, so
//     float aggregates can differ in final ulps when partial sums are
//     inexact, and on data containing NaN the non-transitive Compare
//     semantics (NaN "equals" everything) make MIN/MAX and NaN payload
//     bits order-dependent across chunk splits. Selection kernels
//     reproduce the interpreter's NaN comparison semantics exactly
//     (see cmpFloat), so row selection never diverges.
//   - Context cancellation checks run every block inside each worker
//     loop, so large scans stay cancellable.
//
// Queries outside the shape (row stores, expression group keys or
// aggregate arguments, DISTINCT aggregates, string MIN/MAX, group-id
// spaces that overflow) fall back to the serial interpreter, and the
// reason is reported in ExecStats.FallbackReason. HAVING, ORDER BY,
// projection, DISTINCT, LIMIT and OFFSET need no analysis here: they
// operate on the finalized groups, shared with the serial path.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
)

// denseGroupIDCap bounds the per-worker flat lookup table (entries are
// int32, so this is 256 KiB per worker). Larger id spaces use a map.
const denseGroupIDCap = 1 << 16

// maxGroupIDSpace bounds the total mixed-radix group-id space; beyond it
// the fast path declines (runtime fallback to the interpreter).
const maxGroupIDSpace = 1 << 40

// maxNumDictRadix caps the per-column radix reserved for a runtime
// numeric group-key dictionary: a dimension with more distinct values
// than this is effectively continuous and belongs to the interpreter.
const maxNumDictRadix = 1 << 20

// selBlockRows is the selection-kernel block size: predicates evaluate
// over blocks of this many rows, so the per-worker selection bitmaps
// stay L1-resident however large the chunk is.
const selBlockRows = 1024

// Fast-path fallback reasons, reported via ExecStats.FallbackReason and
// aggregated per reason by the engine's Metrics.
const (
	fallbackSerialExec    = "serial execution"
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
// caller retries on the serial interpreter.
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
	// vecGroupNum is an int or float column; ids are 0 = NULL, else a
	// runtime value-dictionary code + 1 (per worker, remapped at merge).
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
	if stmt.Where != nil {
		sel, err := compileSelection(stmt.Where, schema)
		if err == nil {
			v.filterSel = sel
		}
	}
	return v, ""
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
	dicts   []*numDict // indexed like vecInfo.groups; nil for non-num
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
// false the caller must use the serial interpreter.
func (v *vecInfo) run(p *plan, t *ColStore, opts ExecOptions, lo, hi int) (res *vecRun, ran bool, err error) {
	lo, hi = clampRange(lo, hi, t.rows)

	// Mixed-radix layout of the combined group id. Static cardinalities
	// come from the live table (dictionary sizes); numeric group columns
	// share the remaining id-space budget as their runtime-dictionary
	// radix. This is a runtime check on every execution.
	cards := make([]uint64, len(v.groups))
	staticSpace := uint64(1)
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
			continue // assigned from the leftover budget below
		}
		cards[i] = card
		if staticSpace > maxGroupIDSpace/card {
			return nil, false, nil
		}
		staticSpace *= card
	}
	if n := len(v.numGroups); n > 0 {
		radix := nthRootFloor(maxGroupIDSpace/staticSpace, n)
		if radix > maxNumDictRadix {
			radix = maxNumDictRadix
		}
		if radix < 2 {
			return nil, false, nil
		}
		for _, i := range v.numGroups {
			cards[i] = radix
		}
	}
	strides := make([]uint64, len(v.groups))
	idSpace := uint64(1)
	for i, card := range cards {
		strides[i] = idSpace
		if idSpace > maxGroupIDSpace/card {
			return nil, false, nil
		}
		idSpace *= card
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

	// The same projection mask the serial scan would use, shared
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
			parts[w], errs[w] = v.scanChunk(p, t, opts.Ctx, cLo, cHi, cards, strides, wanted, boundFilter, boundFlags)
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

	entries, scanned, ok := v.merge(p, parts, cards, strides, idSpace)
	if !ok {
		return nil, false, nil
	}
	res.entries, res.scanned = entries, scanned
	return res, true, nil
}

// scanChunk accumulates one worker's contiguous row chunk, block by
// block: selection kernels evaluate the compilable predicate conjuncts
// over each block, then the row loop visits only the selected rows
// (applying residual conjuncts per row).
func (v *vecInfo) scanChunk(p *plan, t *ColStore, ctx context.Context, lo, hi int, cards, strides []uint64, wanted []bool, boundFilter *boundSel, boundFlags []*boundSel) (*vecPartial, error) {
	part := &vecPartial{}
	index := newGIDIndex(idSpaceOf(cards))
	view := colRowView{t: t, wanted: wanted}

	// Hoist loop-invariant column-vector derivations out of the row loop.
	groupCols := make([]*columnVector, len(v.groups))
	for i, g := range v.groups {
		if g.kind != vecGroupFlag {
			groupCols[i] = &t.cols[g.col]
		}
	}
	if len(v.numGroups) > 0 {
		part.dicts = make([]*numDict, len(v.groups))
		for _, i := range v.numGroups {
			part.dicts[i] = newNumDict(cards[i])
		}
	}
	aggCols := make([]*columnVector, len(p.aggs))
	for ai := range p.aggs {
		if p.aggs[ai].argCol >= 0 {
			aggCols[ai] = &t.cols[p.aggs[ai].argCol]
		}
	}

	// Per-worker selection bitmaps, reused across blocks.
	sel := make([]bool, selBlockRows)
	scratch := make([]bool, selBlockRows)
	var flagSels [][]bool
	for i := range v.groups {
		if boundFlags[i] != nil {
			if flagSels == nil {
				flagSels = make([][]bool, len(v.groups))
			}
			flagSels[i] = make([]bool, selBlockRows)
		}
	}
	useFilterKernels := boundFilter != nil

	for blockLo := lo; blockLo < hi; blockLo += selBlockRows {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		blockHi := blockLo + selBlockRows
		if blockHi > hi {
			blockHi = hi
		}
		n := blockHi - blockLo

		// The bitmap is only consulted when kernels are in play (flag
		// kernels seed from it too); skip the fill otherwise.
		if useFilterKernels || flagSels != nil {
			fillRange(sel, n)
		}
		if useFilterKernels {
			boundFilter.apply(blockLo, blockHi, sel[:n], scratch[:n])
		}
		for i := range v.groups {
			if boundFlags[i] == nil {
				continue
			}
			// Seed the flag bitmap from the filter selection so the flag
			// kernels skip rows the filter already rejected.
			fs := flagSels[i]
			copy(fs[:n], sel[:n])
			boundFlags[i].apply(blockLo, blockHi, fs[:n], scratch[:n])
		}

	rowLoop:
		for r := blockLo; r < blockHi; r++ {
			idx := r - blockLo
			if useFilterKernels {
				if !sel[idx] {
					continue
				}
				if len(boundFilter.residual) > 0 {
					view.row = r
					for _, fn := range boundFilter.residual {
						if !fn(view).Truthy() {
							continue rowLoop
						}
					}
				}
			} else if p.filter != nil {
				view.row = r
				if !p.filter(view).Truthy() {
					continue
				}
			}

			gid := uint64(0)
			for i := range v.groups {
				g := &v.groups[i]
				var id uint64
				switch g.kind {
				case vecGroupDict:
					c := groupCols[i]
					if c.nulls == nil || !c.nulls[r] {
						id = uint64(c.codes[r]) + 1
					}
				case vecGroupBool:
					c := groupCols[i]
					switch {
					case c.nulls != nil && c.nulls[r]:
						id = 0
					case c.ints[r] != 0:
						id = 2
					default:
						id = 1
					}
				case vecGroupNum:
					c := groupCols[i]
					if c.nulls == nil || !c.nulls[r] {
						code, ok := part.dicts[i].idFor(groupKeyBits(c, g.typ, r))
						if !ok {
							return nil, errGroupIDSpace
						}
						id = uint64(code)
					}
				case vecGroupFlag:
					truth := false
					if bf := boundFlags[i]; bf != nil {
						truth = flagSels[i][idx]
						if truth && len(bf.residual) > 0 {
							view.row = r
							for _, fn := range bf.residual {
								if !fn(view).Truthy() {
									truth = false
									break
								}
							}
						}
					} else {
						view.row = r
						truth = g.pred(view).Truthy()
					}
					if truth {
						id = 1
					}
				}
				gid += id * strides[i]
			}

			slot := index.get(gid)
			if slot < 0 {
				slot = int32(len(part.entries))
				part.entries = append(part.entries, &groupEntry{
					keys:   v.decodeKeys(t, gid, cards, strides, part.dicts),
					states: make([]aggState, len(p.aggs)),
				})
				part.gids = append(part.gids, gid)
				index.put(gid, slot)
			}

			states := part.entries[slot].states
			for ai := range p.aggs {
				a := &p.aggs[ai]
				s := &states[ai]
				c := aggCols[ai]
				switch a.kind {
				case aggCountStar:
					s.count++
				case aggCount:
					if c.nulls == nil || !c.nulls[r] {
						s.count++
					}
				case aggSum, aggAvg:
					if c.nulls != nil && c.nulls[r] {
						break
					}
					s.count++
					if a.argType == TypeFloat {
						s.sum += c.flts[r]
					} else {
						s.sum += float64(c.ints[r])
					}
				case aggMin:
					if c.nulls != nil && c.nulls[r] {
						break
					}
					// Typed comparisons; a Value is built only when the
					// running minimum actually improves. Int comparisons go
					// through float64 on purpose: the interpreter's
					// Value.Compare coerces every numeric kind with AsFloat,
					// so ints beyond 2^53 that collide as float64 must
					// keep-first here too or parallel results would diverge
					// from serial ones.
					switch a.argType {
					case TypeFloat:
						if x := c.flts[r]; !s.seen || x < s.min.F {
							s.min = Float(x)
							s.seen = true
						}
					case TypeInt:
						if x := c.ints[r]; !s.seen || float64(x) < float64(s.min.I) {
							s.min = Int(x)
							s.seen = true
						}
					default: // TypeBool
						if x := c.ints[r]; !s.seen || x < s.min.I {
							s.min = Bool(x != 0)
							s.seen = true
						}
					}
				case aggMax:
					if c.nulls != nil && c.nulls[r] {
						break
					}
					switch a.argType {
					case TypeFloat:
						if x := c.flts[r]; !s.seen || x > s.max.F {
							s.max = Float(x)
							s.seen = true
						}
					case TypeInt:
						if x := c.ints[r]; !s.seen || float64(x) > float64(s.max.I) {
							s.max = Int(x)
							s.seen = true
						}
					default: // TypeBool
						if x := c.ints[r]; !s.seen || x > s.max.I {
							s.max = Bool(x != 0)
							s.seen = true
						}
					}
				}
			}
		}
	}
	part.scanned = hi - lo
	return part, nil
}

// idSpaceOf multiplies cardinalities (already overflow-checked by run).
func idSpaceOf(cards []uint64) uint64 {
	s := uint64(1)
	for _, c := range cards {
		s *= c
	}
	return s
}

// decodeKeys reconstructs the group-key Values a serial scan would have
// produced for the row(s) behind a combined group id. dicts supplies the
// worker-local numeric dictionaries (nil entries for non-numeric
// groups).
func (v *vecInfo) decodeKeys(t *ColStore, gid uint64, cards, strides []uint64, dicts []*numDict) []Value {
	keys := make([]Value, len(v.groups))
	for i := range v.groups {
		g := &v.groups[i]
		id := (gid / strides[i]) % cards[i]
		switch g.kind {
		case vecGroupDict:
			if id == 0 {
				keys[i] = Null()
			} else {
				keys[i] = Str(t.cols[g.col].dict[id-1])
			}
		case vecGroupBool:
			switch id {
			case 0:
				keys[i] = Null()
			case 1:
				keys[i] = Bool(false)
			default:
				keys[i] = Bool(true)
			}
		case vecGroupNum:
			if id == 0 {
				keys[i] = Null()
			} else {
				bits := dicts[i].order[id-1]
				if g.typ == TypeFloat {
					keys[i] = Float(math.Float64frombits(bits))
				} else {
					keys[i] = Int(int64(bits))
				}
			}
		case vecGroupFlag:
			if id == 1 {
				keys[i] = Int(g.thenV)
			} else {
				keys[i] = Int(g.elseV)
			}
		}
	}
	return keys
}

// merge folds worker partials together in chunk order. Because chunks
// are contiguous and ordered, appending each chunk's unseen groups in
// its own first-seen order reproduces the first-seen order of a
// sequential scan. Numeric group-key codes are worker-local, so the
// merge remaps them onto a global dictionary before comparing ids;
// ok=false reports a (theoretical) global id-space overflow, which sends
// the query to the serial interpreter.
func (v *vecInfo) merge(p *plan, parts []*vecPartial, cards, strides []uint64, idSpace uint64) (entries []*groupEntry, scanned int, ok bool) {
	if len(parts) == 1 {
		return parts[0].entries, parts[0].scanned, true
	}
	if len(v.numGroups) == 0 {
		return v.mergeStatic(p, parts, idSpace), totalScanned(parts), true
	}

	// Pass 1: build global numeric dictionaries (walking partials in
	// chunk order keeps the assignment deterministic) and per-partial
	// code remap tables.
	globalIDs := make([]map[uint64]uint32, len(v.groups))
	for _, i := range v.numGroups {
		globalIDs[i] = make(map[uint64]uint32)
	}
	remaps := make([][][]uint32, len(parts)) // [part][group] local code+null → global
	for pi, part := range parts {
		remaps[pi] = make([][]uint32, len(v.groups))
		for _, i := range v.numGroups {
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
	gCards := append([]uint64(nil), cards...)
	for _, i := range v.numGroups {
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
				id := (gid / strides[i]) % cards[i]
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
