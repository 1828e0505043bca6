package sqldb

import "testing"

// FuzzParse fuzzes the SQL parser. Two properties:
//
//  1. Parse never panics (the fuzz runtime catches panics as failures).
//  2. Canonical rendering is idempotent: if a parsed statement's
//     String() re-parses, the re-parsed statement must render to the
//     same text. (Re-parsing is allowed to fail for identifiers only
//     reachable through double quotes, e.g. names with spaces — the
//     printer quotes what it can, but names containing a double quote
//     are not representable in the dialect.)
//
// The seed corpus is drawn from the query shapes core/sharing.go
// actually renders — combined target/reference CASE flags, shared
// multi-aggregate lists, multi-attribute GROUP BYs — plus lexer and
// parser edge cases.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// sharing.go renderSQL shapes (the SeeDB workload).
		"SELECT marital, CASE WHEN marital = 'Unmarried' THEN 1 ELSE 0 END AS __seedb_flag, SUM(age), COUNT(age) FROM census GROUP BY marital, CASE WHEN marital = 'Unmarried' THEN 1 ELSE 0 END",
		"SELECT d00, d01, d02, SUM(m00), COUNT(m00), SUM(m01), COUNT(m01), MIN(m02), MAX(m03) FROM syn WHERE NOT (d01 = 'target') GROUP BY d00, d01, d02",
		"SELECT housing, AVG(balance) FROM bank WHERE housing = 'yes' GROUP BY housing",
		"SELECT carrier, COUNT(*) FROM air GROUP BY carrier ORDER BY COUNT(*) DESC LIMIT 10 OFFSET 2",
		// The column-store phase statement: UNION ALL branches led by
		// their index, NULL key placeholders and NULL padding.
		"SELECT 0, city, NULL, CASE WHEN price > 22.5 THEN 1 ELSE 0 END AS __seedb_flag, SUM(price), COUNT(price) FROM traffic GROUP BY city, CASE WHEN price > 22.5 THEN 1 ELSE 0 END UNION ALL SELECT 1, NULL, plan, CASE WHEN price > 22.5 THEN 1 ELSE 0 END AS __seedb_flag, MIN(score), NULL FROM traffic GROUP BY plan, CASE WHEN price > 22.5 THEN 1 ELSE 0 END",
		"SELECT 0, a, SUM(m) FROM t WHERE f = 'x' GROUP BY a UNION ALL SELECT 1, a, SUM(m) FROM t WHERE g = 'y' GROUP BY a UNION ALL SELECT * FROM t",
		// Compounds the grammar rejects: mismatched widths, ORDER BY or
		// LIMIT after (or before) a union, UNION without ALL.
		"SELECT a, b FROM t UNION ALL SELECT a FROM t",
		"SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY a",
		"SELECT a FROM t LIMIT 1 UNION ALL SELECT a FROM t",
		"SELECT a FROM t UNION SELECT a FROM t",
		// Edge cases.
		"SELECT * FROM t",
		"SELECT DISTINCT a, b FROM t WHERE a IN (1, 2, 3) AND b NOT BETWEEN -1.5 AND 2e3",
		"SELECT COUNT(DISTINCT x), COALESCE(y, 0) FROM t HAVING COUNT(*) > 1",
		"SELECT a FROM t WHERE s = 'it''s' OR s IS NOT NULL ORDER BY 1 DESC",
		"SELECT CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END FROM t",
		"SELECT -x, +y, a || b, c % 2 FROM t WHERE NOT a OR b AND c",
		"SELECT \"quoted col\" FROM \"t\"",
		"SELECT a AS 'alias' FROM t -- comment",
		"SELECT 1.5e+10, .5, 0.e1 FROM t;",
		"SELECT",
		"SELECT a FROM t WHERE x IN (",
		"'",
		"\"",
		"--",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		s1 := stmt.String()
		stmt2, err := Parse(s1)
		if err != nil {
			return
		}
		if s2 := stmt2.String(); s2 != s1 {
			t.Errorf("canonical form not idempotent:\n in: %q\n s1: %q\n s2: %q", sql, s1, s2)
		}
	})
}
