package sqldb

import (
	"fmt"
	"strings"
)

// Expr is a parsed SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// LiteralExpr is a constant value.
type LiteralExpr struct{ Val Value }

// ColumnExpr is a reference to a column by name.
type ColumnExpr struct{ Name string }

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// BinaryExpr is a binary operator application.
type BinaryExpr struct {
	Op   string // +,-,*,/,%,=,!=,<,<=,>,>=,AND,OR,||
	L, R Expr
}

// InExpr is x IN (a, b, ...) or x NOT IN (...).
type InExpr struct {
	X    Expr
	List []Expr
	Neg  bool
}

// IsNullExpr is x IS NULL or x IS NOT NULL.
type IsNullExpr struct {
	X   Expr
	Neg bool
}

// BetweenExpr is x BETWEEN lo AND hi (inclusive).
type BetweenExpr struct {
	X, Lo, Hi Expr
	Neg       bool
}

// CaseExpr is CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil, meaning NULL
}

// CaseWhen is one WHEN/THEN arm of a CASE expression.
type CaseWhen struct{ Cond, Then Expr }

// FuncExpr is a function call. Aggregate functions (COUNT, SUM, AVG, MIN,
// MAX) are recognized by the planner; COUNT(*) is represented with Star.
type FuncExpr struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*LiteralExpr) exprNode() {}
func (*ColumnExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*InExpr) exprNode()      {}
func (*IsNullExpr) exprNode()  {}
func (*BetweenExpr) exprNode() {}
func (*CaseExpr) exprNode()    {}
func (*FuncExpr) exprNode()    {}

// String renders the literal as SQL.
func (e *LiteralExpr) String() string {
	switch e.Val.Kind {
	case KindString:
		return "'" + strings.ReplaceAll(e.Val.S, "'", "''") + "'"
	case KindFloat:
		// Keep float literals float-typed through a parse round-trip:
		// integral values (including -0.0) would otherwise print like
		// ints and re-parse as ints.
		s := e.Val.String()
		if !strings.ContainsAny(s, ".eEIN") { // spare Inf/NaN, not parseable anyway
			s += ".0"
		}
		return s
	default:
		return e.Val.String()
	}
}

// sqlIdent renders an identifier in canonical SQL: bare when it is a
// plain identifier that is not a reserved word, double-quoted otherwise
// (the form the lexer accepts for such names). Names containing a double
// quote are not representable in the dialect; they render quoted anyway
// as a best effort.
func sqlIdent(name string) string {
	plain := name != "" && isIdentStart(name[0])
	for i := 1; plain && i < len(name); i++ {
		plain = isIdentPart(name[i])
	}
	if plain && !keywords[strings.ToUpper(name)] {
		return name
	}
	return `"` + name + `"`
}

// String renders the column reference.
func (e *ColumnExpr) String() string {
	if e.Name == "*" {
		return "*"
	}
	return sqlIdent(e.Name)
}

// String renders the unary expression.
func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "NOT (" + e.X.String() + ")"
	}
	return "-(" + e.X.String() + ")"
}

// String renders the binary expression with explicit parentheses.
func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// String renders the IN expression.
func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	op := " IN ("
	if e.Neg {
		op = " NOT IN ("
	}
	return "(" + e.X.String() + op + strings.Join(parts, ", ") + "))"
}

// String renders the IS NULL test.
func (e *IsNullExpr) String() string {
	if e.Neg {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// String renders the BETWEEN expression.
func (e *BetweenExpr) String() string {
	op := " BETWEEN "
	if e.Neg {
		op = " NOT BETWEEN "
	}
	return "(" + e.X.String() + op + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// String renders the CASE expression.
func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Then.String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// String renders the function call.
func (e *FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + strings.Join(parts, ", ") + ")"
}

// SelectItem is one entry of a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed single-table SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	Table    string
	Where    Expr        // may be nil
	GroupBy  []Expr      // may be empty
	Having   Expr        // may be nil; requires GROUP BY or aggregates
	OrderBy  []OrderItem // may be empty
	Limit    int         // -1 when absent
	Offset   int         // 0 when absent
	// UnionAll lists the SELECTs joined to this one by UNION ALL, in
	// order. The statement's result is this SELECT's rows followed by
	// each branch's. Every branch has the same column count; branches
	// have no UnionAll of their own, and no SELECT of a compound has
	// ORDER BY, LIMIT or OFFSET.
	UnionAll []*SelectStmt
}

// Branches returns the SELECTs of the statement in order: s itself
// (whose UnionAll the executors ignore when they plan it as a branch)
// followed by its UNION ALL branches.
func (s *SelectStmt) Branches() []*SelectStmt {
	return append([]*SelectStmt{s}, s.UnionAll...)
}

// String renders the statement back to SQL (canonical form, used in tests
// for parse/print round-trips).
func (s *SelectStmt) String() string {
	var b strings.Builder
	s.writeSelect(&b)
	for _, u := range s.UnionAll {
		b.WriteString(" UNION ALL ")
		u.writeSelect(&b)
	}
	return b.String()
}

// writeSelect renders one SELECT, without its UNION ALL branches.
func (s *SelectStmt) writeSelect(b *strings.Builder) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(sqlIdent(it.Alias))
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(sqlIdent(s.Table))
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(b, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(b, " OFFSET %d", s.Offset)
	}
}
