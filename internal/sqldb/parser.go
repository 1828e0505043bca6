package sqldb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrParse is wrapped by every lexing and parsing failure, so callers —
// notably the HTTP server's error classifier — can tell a malformed
// query (the client's mistake, 400) apart from a store failure (the
// deployment's problem, 502) with errors.Is.
var ErrParse = errors.New("sqldb: invalid SQL")

// Parse parses one statement in the engine's SQL dialect: a SELECT, or
// SELECTs joined by UNION ALL.
func Parse(sql string) (*SelectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{src: sql, toks: toks}
	stmt, err := p.parseCompound()
	if err != nil {
		return nil, err
	}
	// Allow a single trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: parse error at offset %d: %s", ErrParse, p.peek().pos, fmt.Sprintf(format, args...))
}

// acceptKeyword consumes the keyword if it is next.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

// acceptSymbol consumes the symbol if it is next.
func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

// expectSymbol consumes the symbol or errors.
func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek().text)
	}
	return nil
}

// parseCompound parses SELECTs joined by UNION ALL. ORDER BY, LIMIT and
// OFFSET would read as applying to the whole compound, which the dialect
// does not support, so a compound rejects them in every branch. Branches
// must agree on their column count; one that selects * is checked when
// the statement is planned, against the table's schema.
func (p *parser) parseCompound() (*SelectStmt, error) {
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	last := stmt
	for p.peek().kind == tokKeyword && p.peek().text == "UNION" {
		if bad := unionTail(last); bad != "" {
			return nil, p.errorf("%s before UNION ALL", bad)
		}
		p.next()
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, err
		}
		if last, err = p.parseSelect(); err != nil {
			return nil, err
		}
		if w, bw := itemCount(stmt), itemCount(last); w >= 0 && bw >= 0 && w != bw {
			return nil, p.errorf("UNION ALL branch %d has %d columns, want %d", len(stmt.UnionAll)+1, bw, w)
		}
		stmt.UnionAll = append(stmt.UnionAll, last)
	}
	if bad := unionTail(last); last != stmt && bad != "" {
		return nil, p.errorf("%s after UNION ALL is not supported", bad)
	}
	return stmt, nil
}

// unionTail names the first of ORDER BY, LIMIT or OFFSET that s
// carries, or "".
func unionTail(s *SelectStmt) string {
	switch {
	case len(s.OrderBy) > 0:
		return "ORDER BY"
	case s.Limit >= 0:
		return "LIMIT"
	case s.Offset > 0:
		return "OFFSET"
	}
	return ""
}

// itemCount is the number of columns s selects, or -1 when it selects *
// (the count then depends on the schema).
func itemCount(s *SelectStmt) int {
	for _, it := range s.Items {
		if c, ok := it.Expr.(*ColumnExpr); ok && c.Name == "*" {
			return -1
		}
	}
	return len(s.Items)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errorf("expected table name, found %q", t.text)
	}
	stmt.Table = t.text

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count, found %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errorf("expected OFFSET count, found %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid OFFSET %q", t.text)
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.next()
		if t.kind != tokIdent && t.kind != tokString {
			return SelectItem{}, p.errorf("expected alias after AS, found %q", t.text)
		}
		item.Alias = t.text
	} else if p.peek().kind == tokIdent {
		// Implicit alias: SELECT expr alias
		item.Alias = p.next().text
	}
	return item, nil
}

// Expression grammar, tightest-binding last:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr (cmpOp addExpr | IN list | IS [NOT] NULL | [NOT] BETWEEN addExpr AND addExpr)?
//	addExpr := mulExpr (("+"|"-"|"||") mulExpr)*
//	mulExpr := unary (("*"|"/"|"%") unary)*
//	unary   := "-" unary | primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Optional negation for IN/BETWEEN: "x NOT IN (...)".
	neg := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		// Only treat as postfix NOT when followed by IN/BETWEEN/LIKE.
		if p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokKeyword &&
			(p.toks[p.i+1].text == "IN" || p.toks[p.i+1].text == "BETWEEN" || p.toks[p.i+1].text == "LIKE") {
			p.next()
			neg = true
		}
	}
	switch {
	case p.peek().kind == tokSymbol && isCmpOp(p.peek().text):
		op := p.next().text
		if op == "<>" {
			op = "!="
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: l, List: list, Neg: neg}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Neg: neg}, nil
	case p.acceptKeyword("IS"):
		isNeg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Neg: isNeg}, nil
	}
	if neg {
		return nil, p.errorf("dangling NOT")
	}
	return l, nil
}

func isCmpOp(s string) bool {
	switch s {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && (p.peek().text == "+" || p.peek().text == "-" || p.peek().text == "||") {
		op := p.next().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && (p.peek().text == "*" || p.peek().text == "/" || p.peek().text == "%") {
		op := p.next().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals.
		if lit, ok := x.(*LiteralExpr); ok {
			switch lit.Val.Kind {
			case KindInt:
				return &LiteralExpr{Val: Int(-lit.Val.I)}, nil
			case KindFloat:
				return &LiteralExpr{Val: Float(-lit.Val.F)}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.acceptSymbol("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.text)
			}
			return &LiteralExpr{Val: Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid integer %q", t.text)
		}
		return &LiteralExpr{Val: Int(i)}, nil
	case tokString:
		p.next()
		return &LiteralExpr{Val: Str(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &LiteralExpr{Val: Null()}, nil
		case "TRUE":
			p.next()
			return &LiteralExpr{Val: Bool(true)}, nil
		case "FALSE":
			p.next()
			return &LiteralExpr{Val: Bool(false)}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errorf("unexpected keyword %q", t.text)
	case tokIdent:
		p.next()
		if p.acceptSymbol("(") {
			return p.parseFuncCall(t.text)
		}
		return &ColumnExpr{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "*" {
			// Bare * select item (SELECT * FROM t).
			p.next()
			return &ColumnExpr{Name: "*"}, nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	fe := &FuncExpr{Name: strings.ToUpper(name)}
	if p.acceptSymbol("*") {
		fe.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fe, nil
	}
	if p.acceptSymbol(")") {
		return fe, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fe.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fe.Args = append(fe.Args, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fe, nil
}
