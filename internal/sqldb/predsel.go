package sqldb

// Predicate-compilation layer for the vectorized fast path.
//
// The row interpreter evaluates WHERE predicates (and the CASE-flag
// predicate of SeeDB's combined target/reference rewrite) through a
// per-row evalFn closure chain: every row pays interface dispatch, Value
// boxing and three-valued-logic plumbing even when the predicate is a
// conjunction of trivial column-vs-literal comparisons. This file lowers
// the common shapes into branch-light selection kernels that run over
// whole column blocks instead:
//
//   - A predicate is split into top-level conjuncts (NOT is pushed down
//     with De Morgan, which is valid in SQL's three-valued logic). Each
//     conjunct that is a comparison leaf — or a flat disjunction of
//     leaves — compiles to one kernel; everything else stays a per-row
//     closure (a "residual"). The split is per conjunct, so one exotic
//     clause never forces the whole filter back to the interpreter.
//   - Kernels compute "predicate is TRUE" (SQL WHERE semantics: NULL and
//     FALSE both reject) directly from the typed column vectors: numeric
//     columns compare as float64 exactly like the interpreter's
//     Value.Compare/Equal, and dictionary-encoded string columns compare
//     codes as integers against a per-dictionary-entry match table built
//     once per execution — string ordering, equality, IN and BETWEEN all
//     become one []bool lookup per row.
//   - Kernels AND into a caller-owned selection bitmap, one pass per
//     conjunct; disjunctions OR their leaves into a scratch bitmap first.
//     The executor reuses both bitmaps per worker across blocks.
//
// Compilation is two-phase: compileSelection analyzes the expression
// against the schema at plan time, and bind resolves column vectors and
// dictionary match tables against the live table at execution start (the
// dictionary may have grown since planning).

import "math"

// cmpOp is a comparison operator in a compiled leaf.
type cmpOp uint8

// Comparison operators.
const (
	opEQ cmpOp = iota
	opNE
	opLT
	opLE
	opGT
	opGE
)

// negateCmp returns the operator for NOT (x op y) under three-valued
// logic: for non-NULL operands the comparison is total, so negation
// simply flips the operator; NULL operands reject either way.
func negateCmp(op cmpOp) cmpOp {
	switch op {
	case opEQ:
		return opNE
	case opNE:
		return opEQ
	case opLT:
		return opGE
	case opLE:
		return opGT
	case opGT:
		return opLE
	default: // opGE
		return opLT
	}
}

// cmpFloat applies op to two float64s. Numeric leaves compare through
// float64 on purpose: the interpreter's Value.Equal/Compare coerce every
// numeric kind with AsFloat, and the kernels must be bit-compatible with
// it (including the int64-beyond-2^53 precision behavior and the NaN
// corner: Value.Compare returns 0 when either side is NaN, so the
// interpreter evaluates NaN <= x and NaN >= x as TRUE while NaN < x and
// NaN = x stay FALSE — hence opLE/opGE negate the opposite strict
// comparison instead of using IEEE <= / >=).
func cmpFloat(op cmpOp, a, b float64) bool {
	switch op {
	case opEQ:
		return a == b
	case opNE:
		return a != b
	case opLT:
		return a < b
	case opLE:
		return !(a > b)
	case opGT:
		return a > b
	default: // opGE
		return !(a < b)
	}
}

// leafKind discriminates compiled leaf predicates.
type leafKind uint8

const (
	// leafCmp is col <op> literal over a numeric (int/float/bool) column.
	leafCmp leafKind = iota
	// leafIn is col [NOT] IN (literals...) over a numeric column.
	leafIn
	// leafBetween is col [NOT] BETWEEN lo AND hi over a numeric column.
	leafBetween
	// leafStr is any comparison over a dict-string column, reduced to a
	// predicate over dictionary entries (evaluated per code at bind time).
	leafStr
	// leafNull is col IS [NOT] NULL (over any column type).
	leafNull
	// leafConst is a constant truth value (e.g. col = NULL, WHERE TRUE).
	leafConst
)

// selLeaf is one analyzed comparison leaf. The fields used depend on
// kind; col/typ are set for every kind except leafConst.
type selLeaf struct {
	kind leafKind
	col  int
	typ  ColumnType

	op  cmpOp   // leafCmp
	val float64 // leafCmp

	vals []float64 // leafIn
	neg  bool      // leafIn, leafBetween, leafNull: negate the membership/range/null test

	lo, hi float64 // leafBetween

	strPred func(string) bool // leafStr: TRUE-match over dictionary entries

	constVal bool // leafConst
}

// selProg is the plan-time compilation of one predicate: compiled
// conjuncts (each a disjunction of leaves) plus residual conjuncts that
// stay on the closure path. Conjunct order does not affect the result
// (they are ANDed), so kernels always run before residuals.
type selProg struct {
	conjuncts [][]selLeaf
	residual  []evalFn
}

// compileSelection lowers pred into a selection program over schema.
// It never rejects a predicate outright — uncompilable conjuncts become
// residual closures — but surfaces compile errors from the residual
// closures (which cannot happen for predicates the planner already
// compiled whole; the error path is defensive).
func compileSelection(pred Expr, schema *Schema) (*selProg, error) {
	c := &selCompiler{schema: schema}
	if err := c.addConjunct(pred, false); err != nil {
		return nil, err
	}
	return &selProg{conjuncts: c.conjuncts, residual: c.residual}, nil
}

// kernelCount returns how many conjuncts compiled to kernels.
func (p *selProg) kernelCount() int {
	if p == nil {
		return 0
	}
	return len(p.conjuncts)
}

// residualCount returns how many conjuncts stayed on the closure path.
func (p *selProg) residualCount() int {
	if p == nil {
		return 0
	}
	return len(p.residual)
}

// selCompiler accumulates conjuncts during recursive predicate analysis.
type selCompiler struct {
	schema    *Schema
	conjuncts [][]selLeaf
	residual  []evalFn
}

// addConjunct splits e (negated when neg) into conjuncts: AND splits
// directly, NOT(... OR ...) splits by De Morgan. Each leaf conjunct is
// compiled to kernels when its shape allows, and kept as a closure
// residual otherwise.
func (c *selCompiler) addConjunct(e Expr, neg bool) error {
	switch n := e.(type) {
	case *UnaryExpr:
		if n.Op == "NOT" {
			return c.addConjunct(n.X, !neg)
		}
	case *BinaryExpr:
		if (n.Op == "AND" && !neg) || (n.Op == "OR" && neg) {
			if err := c.addConjunct(n.L, neg); err != nil {
				return err
			}
			return c.addConjunct(n.R, neg)
		}
	}
	if leaves, ok := c.compileDisjunction(e, neg); ok {
		c.conjuncts = append(c.conjuncts, leaves)
		return nil
	}
	fn, err := compileScalar(e, c.schema)
	if err != nil {
		return err
	}
	if neg {
		inner := fn
		fn = func(row RowView) Value { return notValue(inner(row)) }
	}
	c.residual = append(c.residual, fn)
	return nil
}

// compileDisjunction flattens e into a disjunction of compilable leaves
// (OR directly, NOT(... AND ...) by De Morgan). A single leaf is a
// one-element disjunction. ok=false means some disjunct is outside the
// compilable shape, in which case the whole conjunct goes residual —
// "a OR weird(b)" cannot split the way a conjunction can.
func (c *selCompiler) compileDisjunction(e Expr, neg bool) ([]selLeaf, bool) {
	switch n := e.(type) {
	case *UnaryExpr:
		if n.Op == "NOT" {
			return c.compileDisjunction(n.X, !neg)
		}
	case *BinaryExpr:
		if (n.Op == "OR" && !neg) || (n.Op == "AND" && neg) {
			l, ok := c.compileDisjunction(n.L, neg)
			if !ok {
				return nil, false
			}
			r, ok := c.compileDisjunction(n.R, neg)
			if !ok {
				return nil, false
			}
			return append(l, r...), true
		}
	}
	leaf, ok := c.compileLeaf(e, neg)
	if !ok {
		return nil, false
	}
	return []selLeaf{leaf}, true
}

// literalValue unwraps a literal expression, including a unary minus
// over a numeric literal (the parser keeps "-10" as -(10)).
func literalValue(e Expr) (Value, bool) {
	switch n := e.(type) {
	case *LiteralExpr:
		return n.Val, true
	case *UnaryExpr:
		if n.Op == "-" {
			if l, ok := n.X.(*LiteralExpr); ok && (l.Val.Kind == KindInt || l.Val.Kind == KindFloat) {
				return negValue(l.Val), true
			}
		}
	}
	return Value{}, false
}

// numericKind reports whether a value participates in the interpreter's
// numeric comparison (AsFloat succeeds).
func numericKind(v Value) bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindBool
}

// numericColumn reports whether a column type is stored in a numeric
// vector (ints or flts).
func numericColumn(t ColumnType) bool {
	return t == TypeInt || t == TypeFloat || t == TypeBool
}

// compileLeaf compiles one comparison leaf; ok=false means the shape is
// outside the kernel grammar (function calls, arithmetic, column-vs-
// column, kind-mixing comparisons) and the conjunct must go residual.
func (c *selCompiler) compileLeaf(e Expr, neg bool) (selLeaf, bool) {
	if v, ok := literalValue(e); ok {
		// A bare literal predicate (WHERE TRUE): NULL is never TRUE under
		// either polarity; otherwise NOT flips the truth value.
		if v.IsNull() {
			return selLeaf{kind: leafConst, constVal: false}, true
		}
		return selLeaf{kind: leafConst, constVal: v.Truthy() != neg}, true
	}

	switch n := e.(type) {
	case *ColumnExpr:
		// A bare numeric column is Truthy ⇔ non-NULL and != 0, which is
		// exactly a comparison leaf against zero. Bare string columns are
		// never Truthy but NOT over them is IS NOT NULL — leave those to
		// the residual path rather than encode that corner here.
		idx, found := c.schema.Lookup(n.Name)
		if !found || !numericColumn(c.schema.Column(idx).Type) {
			return selLeaf{}, false
		}
		op := opNE
		if neg {
			op = opEQ
		}
		return selLeaf{kind: leafCmp, col: idx, typ: c.schema.Column(idx).Type, op: op, val: 0}, true

	case *BinaryExpr:
		var op cmpOp
		switch n.Op {
		case "=":
			op = opEQ
		case "!=":
			op = opNE
		case "<":
			op = opLT
		case "<=":
			op = opLE
		case ">":
			op = opGT
		case ">=":
			op = opGE
		default:
			return selLeaf{}, false
		}
		colExpr, litExpr := n.L, n.R
		flipped := false
		if _, isCol := colExpr.(*ColumnExpr); !isCol {
			colExpr, litExpr, flipped = n.R, n.L, true
		}
		col, isCol := colExpr.(*ColumnExpr)
		if !isCol {
			return selLeaf{}, false
		}
		lit, isLit := literalValue(litExpr)
		if !isLit {
			return selLeaf{}, false
		}
		idx, found := c.schema.Lookup(col.Name)
		if !found {
			return selLeaf{}, false
		}
		typ := c.schema.Column(idx).Type
		if lit.IsNull() {
			// col <op> NULL is NULL for every row; never TRUE under either
			// polarity.
			return selLeaf{kind: leafConst, constVal: false}, true
		}
		if flipped {
			// lit op col ≡ col (mirrored op) lit.
			switch op {
			case opLT:
				op = opGT
			case opLE:
				op = opGE
			case opGT:
				op = opLT
			case opGE:
				op = opLE
			}
		}
		if neg {
			op = negateCmp(op)
		}
		switch {
		case numericColumn(typ) && numericKind(lit):
			f, _ := lit.AsFloat()
			return selLeaf{kind: leafCmp, col: idx, typ: typ, op: op, val: f}, true
		case typ == TypeString && lit.Kind == KindString:
			s, cop := lit.S, op
			return selLeaf{kind: leafStr, col: idx, typ: typ, strPred: func(d string) bool {
				switch cop {
				case opEQ:
					return d == s
				case opNE:
					return d != s
				case opLT:
					return d < s
				case opLE:
					return d <= s
				case opGT:
					return d > s
				default:
					return d >= s
				}
			}}, true
		default:
			// Kind-mixing comparisons (string column vs number, ...) have
			// interpreter-specific corner semantics; leave them residual.
			return selLeaf{}, false
		}

	case *IsNullExpr:
		col, isCol := n.X.(*ColumnExpr)
		if !isCol {
			return selLeaf{}, false
		}
		idx, found := c.schema.Lookup(col.Name)
		if !found {
			return selLeaf{}, false
		}
		// IS NULL is two-valued, so NOT composes by plain negation.
		return selLeaf{kind: leafNull, col: idx, typ: c.schema.Column(idx).Type, neg: n.Neg != neg}, true

	case *InExpr:
		col, isCol := n.X.(*ColumnExpr)
		if !isCol {
			return selLeaf{}, false
		}
		idx, found := c.schema.Lookup(col.Name)
		if !found {
			return selLeaf{}, false
		}
		typ := c.schema.Column(idx).Type
		effNeg := n.Neg != neg
		// The interpreter matches elements with Value.Equal: NULL and
		// kind-mismatched elements never match and simply drop out of the
		// compiled match set (this mirrors the interpreter, not standard
		// SQL's NULL-poisoned NOT IN).
		switch {
		case numericColumn(typ):
			vals := make([]float64, 0, len(n.List))
			for _, le := range n.List {
				lv, ok := literalValue(le)
				if !ok {
					return selLeaf{}, false
				}
				if numericKind(lv) {
					f, _ := lv.AsFloat()
					vals = append(vals, f)
				} else if !lv.IsNull() && lv.Kind != KindString {
					return selLeaf{}, false
				}
			}
			return selLeaf{kind: leafIn, col: idx, typ: typ, vals: vals, neg: effNeg}, true
		case typ == TypeString:
			set := make(map[string]bool, len(n.List))
			for _, le := range n.List {
				lv, ok := literalValue(le)
				if !ok {
					return selLeaf{}, false
				}
				if lv.Kind == KindString {
					set[lv.S] = true
				}
			}
			return selLeaf{kind: leafStr, col: idx, typ: typ, strPred: func(d string) bool {
				return set[d] != effNeg
			}}, true
		default:
			return selLeaf{}, false
		}

	case *BetweenExpr:
		col, isCol := n.X.(*ColumnExpr)
		if !isCol {
			return selLeaf{}, false
		}
		loV, ok1 := literalValue(n.Lo)
		hiV, ok2 := literalValue(n.Hi)
		if !ok1 || !ok2 {
			return selLeaf{}, false
		}
		idx, found := c.schema.Lookup(col.Name)
		if !found {
			return selLeaf{}, false
		}
		typ := c.schema.Column(idx).Type
		if loV.IsNull() || hiV.IsNull() {
			// A NULL bound makes the whole BETWEEN NULL for every row.
			return selLeaf{kind: leafConst, constVal: false}, true
		}
		effNeg := n.Neg != neg
		switch {
		case numericColumn(typ) && numericKind(loV) && numericKind(hiV):
			lo, _ := loV.AsFloat()
			hi, _ := hiV.AsFloat()
			return selLeaf{kind: leafBetween, col: idx, typ: typ, lo: lo, hi: hi, neg: effNeg}, true
		case typ == TypeString && loV.Kind == KindString && hiV.Kind == KindString:
			lo, hi := loV.S, hiV.S
			return selLeaf{kind: leafStr, col: idx, typ: typ, strPred: func(d string) bool {
				return (d >= lo && d <= hi) != effNeg
			}}, true
		default:
			return selLeaf{}, false
		}
	}
	return selLeaf{}, false
}

// selKernel is one bound conjunct: and() folds "conjunct is TRUE" into
// sel[r-lo] for rows [lo, hi), skipping rows already deselected. scratch
// must be at least hi-lo long; only disjunction kernels use it.
type selKernel interface {
	and(lo, hi int, sel, scratch []bool)
}

// orLeaf is a bound leaf inside a disjunction: or() folds "leaf is TRUE"
// into sel for rows not yet selected.
type orLeaf interface {
	selKernel
	or(lo, hi int, sel []bool)
}

// boundSel is a selection program bound to one table for one execution.
// It is immutable after bind and shared read-only by all scan workers.
type boundSel struct {
	kernels  []selKernel
	residual []evalFn
}

// bind resolves the program's leaves against t's live column vectors and
// dictionaries.
func (p *selProg) bind(t *colSnap) *boundSel {
	if p == nil {
		return nil
	}
	b := &boundSel{residual: p.residual}
	for _, disj := range p.conjuncts {
		if len(disj) == 1 {
			b.kernels = append(b.kernels, bindLeaf(t, disj[0]))
			continue
		}
		or := &kernOr{leaves: make([]orLeaf, len(disj))}
		for i, leaf := range disj {
			or.leaves[i] = bindLeaf(t, leaf)
		}
		b.kernels = append(b.kernels, or)
	}
	return b
}

// apply runs every kernel over [lo, hi), ANDing into sel. Residual
// conjuncts are the caller's per-row business (they need a RowView).
func (b *boundSel) apply(lo, hi int, sel, scratch []bool) {
	for _, k := range b.kernels {
		k.and(lo, hi, sel, scratch)
	}
}

// bindLeaf builds the concrete kernel for one leaf.
func bindLeaf(t *colSnap, leaf selLeaf) orLeaf {
	switch leaf.kind {
	case leafConst:
		return &kernConst{val: leaf.constVal}
	case leafNull:
		return &kernNull{c: &t.cols[leaf.col], wantNull: !leaf.neg}
	case leafStr:
		c := &t.cols[leaf.col]
		match := make([]bool, len(c.dict))
		for i, s := range c.dict {
			match[i] = leaf.strPred(s)
		}
		return &kernDict{c: c, match: match}
	case leafIn:
		return &kernNumIn{c: &t.cols[leaf.col], flt: leaf.typ == TypeFloat, vals: leaf.vals, neg: leaf.neg}
	case leafBetween:
		return &kernNumBetween{c: &t.cols[leaf.col], flt: leaf.typ == TypeFloat, lo: leaf.lo, hi: leaf.hi, neg: leaf.neg}
	default: // leafCmp
		return &kernNumCmp{c: &t.cols[leaf.col], flt: leaf.typ == TypeFloat, op: leaf.op, val: leaf.val}
	}
}

// kernConst is a constant-truth kernel.
type kernConst struct{ val bool }

func (k *kernConst) and(lo, hi int, sel, _ []bool) {
	if k.val {
		return
	}
	clearRange(sel, hi-lo)
}

func (k *kernConst) or(lo, hi int, sel []bool) {
	if !k.val {
		return
	}
	for i := 0; i < hi-lo; i++ {
		sel[i] = true
	}
}

// kernNull tests IS [NOT] NULL.
type kernNull struct {
	c        *columnVector
	wantNull bool
}

func (k *kernNull) isNull(r int) bool { return k.c.nulls != nil && k.c.nulls[r] }

func (k *kernNull) and(lo, hi int, sel, _ []bool) {
	if k.c.nulls == nil {
		// No NULLs in the column: IS NULL never holds, IS NOT NULL always.
		if k.wantNull {
			clearRange(sel, hi-lo)
		}
		return
	}
	nulls, want := k.c.nulls, k.wantNull
	for r := lo; r < hi; r++ {
		if sel[r-lo] {
			sel[r-lo] = nulls[r] == want
		}
	}
}

func (k *kernNull) or(lo, hi int, sel []bool) {
	for r := lo; r < hi; r++ {
		if !sel[r-lo] {
			sel[r-lo] = k.isNull(r) == k.wantNull
		}
	}
}

// kernDict evaluates any dict-string comparison through a per-code match
// table: one nil-check and one []bool index per row.
type kernDict struct {
	c     *columnVector
	match []bool
}

func (k *kernDict) trueAt(r int) bool {
	if k.c.nulls != nil && k.c.nulls[r] {
		return false
	}
	return k.match[k.c.codes[r]]
}

func (k *kernDict) and(lo, hi int, sel, _ []bool) {
	codes, match, nulls := k.c.codes, k.match, k.c.nulls
	if nulls == nil {
		for r := lo; r < hi; r++ {
			if sel[r-lo] {
				sel[r-lo] = match[codes[r]]
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		if sel[r-lo] {
			sel[r-lo] = !nulls[r] && match[codes[r]]
		}
	}
}

func (k *kernDict) or(lo, hi int, sel []bool) {
	for r := lo; r < hi; r++ {
		if !sel[r-lo] {
			sel[r-lo] = k.trueAt(r)
		}
	}
}

// numAt reads the numeric value of column c at row r as float64, the
// same coercion the interpreter's Value.AsFloat applies.
func numAt(c *columnVector, flt bool, r int) float64 {
	if flt {
		return c.flts[r]
	}
	return float64(c.ints[r])
}

// kernNumCmp is col <op> literal over a numeric column.
type kernNumCmp struct {
	c   *columnVector
	flt bool
	op  cmpOp
	val float64
}

func (k *kernNumCmp) trueAt(r int) bool {
	if k.c.nulls != nil && k.c.nulls[r] {
		return false
	}
	return cmpFloat(k.op, numAt(k.c, k.flt, r), k.val)
}

func (k *kernNumCmp) and(lo, hi int, sel, _ []bool) {
	if k.c.nulls != nil {
		clearWhere(sel, k.c.nulls[lo:hi])
	}
	if k.flt {
		andCmp(k.op, k.c.flts[lo:hi], k.val, sel)
	} else {
		andCmp(k.op, k.c.ints[lo:hi], k.val, sel)
	}
}

// andCmp folds "x <op> val" into sel over one block of a NULL-free (or
// NULL-cleared) numeric column. The operator is dispatched once, outside
// the row loops; each loop is cmpFloat's arm for that operator, so the
// NaN and <=/>= semantics documented there hold here too. The loops
// compare every row and then mask with sel, which compiles without a
// branch: what sel holds after an earlier kernel is data, not a pattern
// a predictor can learn.
func andCmp[T int64 | float64](op cmpOp, xs []T, val float64, sel []bool) {
	sel = sel[:len(xs)]
	switch op {
	case opEQ:
		for i, x := range xs {
			keep := float64(x) == val
			if !sel[i] {
				keep = false
			}
			sel[i] = keep
		}
	case opNE:
		for i, x := range xs {
			keep := float64(x) != val
			if !sel[i] {
				keep = false
			}
			sel[i] = keep
		}
	case opLT:
		for i, x := range xs {
			keep := float64(x) < val
			if !sel[i] {
				keep = false
			}
			sel[i] = keep
		}
	case opLE:
		for i, x := range xs {
			keep := !(float64(x) > val)
			if !sel[i] {
				keep = false
			}
			sel[i] = keep
		}
	case opGT:
		for i, x := range xs {
			keep := float64(x) > val
			if !sel[i] {
				keep = false
			}
			sel[i] = keep
		}
	default: // opGE
		for i, x := range xs {
			keep := !(float64(x) < val)
			if !sel[i] {
				keep = false
			}
			sel[i] = keep
		}
	}
}

func (k *kernNumCmp) or(lo, hi int, sel []bool) {
	for r := lo; r < hi; r++ {
		if !sel[r-lo] {
			sel[r-lo] = k.trueAt(r)
		}
	}
}

// kernNumIn is col [NOT] IN (literals) over a numeric column. SeeDB IN
// lists are short, so a linear scan beats hashing.
type kernNumIn struct {
	c    *columnVector
	flt  bool
	vals []float64
	neg  bool
}

func (k *kernNumIn) trueAt(r int) bool {
	if k.c.nulls != nil && k.c.nulls[r] {
		return false
	}
	v := numAt(k.c, k.flt, r)
	matched := false
	for _, x := range k.vals {
		if v == x {
			matched = true
			break
		}
	}
	return matched != k.neg
}

func (k *kernNumIn) and(lo, hi int, sel, _ []bool) {
	for r := lo; r < hi; r++ {
		if sel[r-lo] {
			sel[r-lo] = k.trueAt(r)
		}
	}
}

func (k *kernNumIn) or(lo, hi int, sel []bool) {
	for r := lo; r < hi; r++ {
		if !sel[r-lo] {
			sel[r-lo] = k.trueAt(r)
		}
	}
}

// kernNumBetween is col [NOT] BETWEEN lo AND hi over a numeric column.
type kernNumBetween struct {
	c      *columnVector
	flt    bool
	lo, hi float64
	neg    bool
}

func (k *kernNumBetween) trueAt(r int) bool {
	if k.c.nulls != nil && k.c.nulls[r] {
		return false
	}
	v := numAt(k.c, k.flt, r)
	// The interpreter tests v.Compare(lo) >= 0 && v.Compare(hi) <= 0,
	// and Compare returns 0 against NaN — so a NaN cell is inside every
	// range. Negated strict comparisons reproduce that.
	return (!(v < k.lo) && !(v > k.hi)) != k.neg
}

func (k *kernNumBetween) and(lo, hi int, sel, _ []bool) {
	nulls, lov, hiv, neg := k.c.nulls, k.lo, k.hi, k.neg
	if k.flt && nulls == nil {
		flts := k.c.flts
		for r := lo; r < hi; r++ {
			if sel[r-lo] {
				v := flts[r]
				sel[r-lo] = (!(v < lov) && !(v > hiv)) != neg
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		if sel[r-lo] {
			sel[r-lo] = k.trueAt(r)
		}
	}
}

func (k *kernNumBetween) or(lo, hi int, sel []bool) {
	for r := lo; r < hi; r++ {
		if !sel[r-lo] {
			sel[r-lo] = k.trueAt(r)
		}
	}
}

// kernOr is a disjunction conjunct: leaves OR into the scratch bitmap,
// which then ANDs into the selection.
type kernOr struct{ leaves []orLeaf }

func (k *kernOr) and(lo, hi int, sel, scratch []bool) {
	n := hi - lo
	clearRange(scratch, n)
	for _, l := range k.leaves {
		l.or(lo, hi, scratch[:n])
	}
	for i := 0; i < n; i++ {
		if sel[i] {
			sel[i] = scratch[i]
		}
	}
}

// clearRange sets the first n entries of b to false (the clear builtin
// lowers to memclr).
func clearRange(b []bool, n int) {
	clear(b[:n])
}

// clearWhere deselects the rows whose mask entry is set (a column's NULL
// markers: no comparison is TRUE on NULL).
func clearWhere(sel, mask []bool) {
	sel = sel[:len(mask)]
	for i, m := range mask {
		if m {
			sel[i] = false
		}
	}
}

// fillRange sets the first n entries of b to true.
func fillRange(b []bool, n int) {
	for i := 0; i < n; i++ {
		b[i] = true
	}
}

// groupKeyBits returns the identity bits of a numeric group-key cell:
// the raw int64 bits for int columns and the IEEE-754 bits for float
// columns. This matches the row interpreter's appendKey encoding, so
// -0.0 vs +0.0 and distinct NaN payloads split groups identically on
// both paths.
func groupKeyBits(c *columnVector, typ ColumnType, r int) uint64 {
	if typ == TypeFloat {
		return math.Float64bits(c.flts[r])
	}
	return uint64(c.ints[r])
}
