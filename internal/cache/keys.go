package cache

import (
	"strconv"
	"strings"
)

// Key construction. A namespace is a one-letter key prefix; the three
// constructors below are the only place keys are built, which keeps the
// namespaces (r request results, t table statistics, s stale-on-outage
// aliases) disjoint inside one shared budget. The r and t keys embed the
// dataset version token a backend's TableInfo reports (the embedded
// store's comes from sqldb.(*DB).TableState), which is what makes
// invalidation purely versioned: when a table is reloaded or appended
// to, new requests carry a new version and can never observe entries
// written under the old one.
// The s key is deliberately version-less: it exists for the moment the
// current version is unreachable.

// sep separates key components; it cannot appear in SQL text or
// identifiers.
const sep = "\x00"

// RequestKey keys one whole Recommend invocation. parts is the
// canonical, order-sensitive rendering of the request and of every
// option that can influence the result.
func RequestKey(table, version string, parts ...string) string {
	return "r" + sep + strings.ToLower(table) + sep + version + sep + strings.Join(parts, sep)
}

// StatsKey keys one table's statistics at one version. It carries the
// degraded-results opt-in, so a complete-or-error request never shares
// a flight whose statistics may describe only the surviving shards.
func StatsKey(table, version string, allowPartial bool) string {
	return "t" + sep + strings.ToLower(table) + sep + version + sep + strconv.FormatBool(allowPartial)
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
