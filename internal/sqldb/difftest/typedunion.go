package difftest

import (
	"fmt"

	"seedb/internal/sqldb"
)

// CheckTypedUnion reports why a typed SQL store would reject stmt as a
// UNION ALL, or nil. Such a store (PostgreSQL, for one) gives each
// column of a compound one type, resolved from the branches two at a
// time: branches whose values fall in different type categories (text,
// numeric, boolean) fail, and a bare NULL has no type — two of them in
// a row make the column text, and the next numeric or boolean branch
// then fails. So every item of every branch must have a type, the
// same category in every branch. The check types the expressions the
// engine and the shard router generate: literals, columns of schema,
// aggregates and CASE; anything else counts as untyped.
func CheckTypedUnion(stmt *sqldb.SelectStmt, schema *sqldb.Schema) error {
	var cats []string
	for b, br := range stmt.Branches() {
		if b > 0 && len(br.Items) != len(cats) {
			return fmt.Errorf("branch %d has %d columns, want %d", b, len(br.Items), len(cats))
		}
		for i, it := range br.Items {
			c := category(it.Expr, schema)
			switch {
			case c == "":
				return fmt.Errorf("branch %d column %d (%s) has no type", b, i, it.Expr)
			case b == 0:
				cats = append(cats, c)
			case c != cats[i]:
				return fmt.Errorf("branch %d column %d (%s) is %s, branch 0's is %s", b, i, it.Expr, c, cats[i])
			}
		}
	}
	return nil
}

// category returns e's type category, "" when it has none (a NULL) or
// the check does not type it.
func category(e sqldb.Expr, schema *sqldb.Schema) string {
	switch n := e.(type) {
	case *sqldb.LiteralExpr:
		return kindCategory(n.Val.Kind)
	case *sqldb.ColumnExpr:
		idx, ok := schema.Lookup(n.Name)
		if !ok {
			return ""
		}
		switch schema.Column(idx).Type {
		case sqldb.TypeString:
			return "text"
		case sqldb.TypeBool:
			return "boolean"
		default:
			return "numeric"
		}
	case *sqldb.FuncExpr:
		switch n.Name {
		case "COUNT", "SUM", "AVG":
			return "numeric"
		case "MIN", "MAX":
			return category(n.Args[0], schema)
		}
	case *sqldb.CaseExpr:
		// The arms' common category; NULL arms take it.
		arms := []sqldb.Expr{n.Else}
		for _, w := range n.Whens {
			arms = append(arms, w.Then)
		}
		cat := ""
		for _, a := range arms {
			if a == nil {
				continue
			}
			switch c := category(a, schema); {
			case c == "":
			case cat == "":
				cat = c
			case c != cat:
				return ""
			}
		}
		return cat
	}
	return ""
}

// kindCategory is a literal's type category.
func kindCategory(k sqldb.ValueKind) string {
	switch k {
	case sqldb.KindInt, sqldb.KindFloat:
		return "numeric"
	case sqldb.KindString:
		return "text"
	case sqldb.KindBool:
		return "boolean"
	}
	return ""
}
