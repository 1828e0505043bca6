package cache

import (
	"strconv"
	"strings"
)

// Key construction. A namespace is a one-letter key prefix; the three
// constructors below are the only place keys are built, which keeps the
// namespaces (q query results, r request results, s stale-on-outage
// aliases) disjoint inside one shared budget. The q and r keys embed
// the dataset version token a backend's TableInfo reports (the embedded
// store's comes from sqldb.(*DB).TableState), which is what makes
// invalidation purely versioned: when a table is reloaded
// or appended to, new requests carry a new version and can never observe
// entries written under the old one.
// The s key is deliberately version-less: it exists for the moment the
// current version is unreachable.

// sep separates key components; it cannot appear in SQL text or
// identifiers.
const sep = "\x00"

// NormalizeSQL canonicalizes generated SQL for use as a cache key:
// surrounding whitespace and a trailing semicolon are dropped and runs
// of whitespace outside string literals collapse to single spaces, so
// formatting differences do not defeat memoization. Whitespace inside
// single-quoted literals is preserved — 'New  York' and 'New York' are
// different values and must never share a key. It deliberately does not
// reorder clauses — SeeDB generates SQL deterministically, and semantic
// normalization of arbitrary SQL is not worth the risk of conflating
// distinct queries.
func NormalizeSQL(sql string) string {
	sql = strings.TrimSpace(sql)
	sql = strings.TrimSuffix(sql, ";")
	var b strings.Builder
	b.Grow(len(sql))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		ch := sql[i]
		if inStr {
			b.WriteByte(ch)
			if ch == '\'' {
				// Closes the literal; a doubled '' simply re-enters on
				// the next iteration, preserving its content verbatim.
				inStr = false
			}
			continue
		}
		switch ch {
		case ' ', '\t', '\n', '\r':
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			if ch == '\'' {
				inStr = true
			}
			b.WriteByte(ch)
		}
	}
	return b.String()
}

// QueryKey keys one shared view query execution: normalized SQL plus the
// table version, the scanned row range (phased execution runs the same
// SQL over different partitions), and the degraded-results opt-in. The
// last matters for singleflight, not storage: a complete-or-error
// request must never share a flight whose computation may legally
// return partial shard coverage.
func QueryKey(table, version, sql string, lo, hi int, allowPartial bool) string {
	return "q" + sep + strings.ToLower(table) + sep + version + sep +
		strconv.Itoa(lo) + sep + strconv.Itoa(hi) + sep +
		strconv.FormatBool(allowPartial) + sep + NormalizeSQL(sql)
}

// RequestKey keys one whole Recommend invocation. parts is the
// canonical, order-sensitive rendering of the request and of every
// option that can influence the result.
func RequestKey(table, version string, parts ...string) string {
	return "r" + sep + strings.ToLower(table) + sep + version + sep + strings.Join(parts, sep)
}

// StaleKey keys the stale-on-outage alias for one raw request shape:
// its value is the RequestKey of the last complete result computed for
// that shape, at whatever version that was. scope is the backend's name
// (what RequestKey carries inside its version token), so engines over
// different backends sharing one cache never replay each other's
// answers. parts must be computable without touching the backend — an
// outage is exactly when table metadata is unavailable.
func StaleKey(table, scope string, parts ...string) string {
	return "s" + sep + strings.ToLower(table) + sep + scope + sep + strings.Join(parts, sep)
}
