// Package backend defines the seam between the SeeDB recommendation
// middleware and the data store it runs on.
//
// The paper's architecture (Section 3, Figure 3) deliberately separates
// the middleware — view generation, sharing optimizations, pruning,
// phased execution — from the DBMS that executes the generated
// aggregation queries, so the same optimizer can sit in front of any
// store. This package is that separation made concrete: core.Engine
// depends only on the Backend interface, and a Backend supplies three
// things:
//
//   - schema introspection (TableInfo, TableStats), which feeds the view
//     generator's dimension/measure classification and the bin-packing
//     group-by optimizer;
//   - dataset versioning (TableInfo.Version), which keys the shared
//     result cache so stale entries become unreachable when data
//     changes, and — with the row count read alongside it — pins the
//     table state one request reads;
//   - query execution (Exec), which runs one generated SQL aggregation
//     query and returns materialized rows plus execution stats.
//
// Two implementations ship with the repository: Embedded (this package)
// wraps the in-process sqldb column/row store with zero behavior change,
// and sqlbe (a subpackage) pushes the combined CASE-flag aggregate
// queries through database/sql to any external SQL store.
//
// Not every store supports every engine optimization, so backends
// declare Capabilities and the engine degrades gracefully: phased
// sharing-aware execution (COMB/COMB_EARLY) for backends with row-range
// scans, single-pass combined queries (SHARING) otherwise. The
// conformancetest subpackage checks any implementation against the
// embedded reference, modulo exactly those documented degradations.
package backend

import (
	"context"
	"errors"
	"strings"
	"sync"

	"seedb/internal/sqldb"
)

// ErrNoTable reports that a table does not exist in the backend's
// store. TableInfo implementations return it (possibly wrapped) when
// they can tell the difference between a missing table and a store
// failure; callers match with errors.Is.
var ErrNoTable = errors.New("backend: table does not exist")

// ErrUnavailable reports that the backing store could not be reached or
// answered with a server-side failure — an outage, not a client mistake.
// Network backends (internal/backend/netbe) wrap it around transport
// errors and remote 5xx responses after their retry budget is spent; the
// shard router preserves it through its child-error wrapping. The HTTP
// server's error classifier maps it to 502 Bad Gateway, which is what
// lets an upstream netbe's retry policy key off status codes instead of
// guessing from message text.
var ErrUnavailable = errors.New("backend: store unavailable")

// Value is the engine's runtime scalar, shared with the embedded store
// so the hot path (the embedded adapter) moves rows without conversion.
type Value = sqldb.Value

// ColumnType identifies a column's declared type.
type ColumnType = sqldb.ColumnType

// Layout identifies a table's physical storage organization. External
// backends that do not know (or do not expose) their physical layout
// should report LayoutRow, whose larger group-by memory budget is the
// conservative default for general-purpose stores.
type Layout = sqldb.Layout

// Column, ColumnStats, TableStats and ExecStats are the records that
// cross this seam. Each is declared once, in sqldb, with the JSON tags
// the netbe wire encodes; every layer above reuses it through these
// aliases rather than declaring a mirror.
type (
	Column      = sqldb.Column
	ColumnStats = sqldb.ColumnStats
	TableStats  = sqldb.TableStats
	ExecStats   = sqldb.ExecStats
)

// Column types and layouts, re-exported so engine code above this seam
// does not import the embedded store directly.
const (
	TypeInt    = sqldb.TypeInt
	TypeFloat  = sqldb.TypeFloat
	TypeString = sqldb.TypeString
	TypeBool   = sqldb.TypeBool

	LayoutRow = sqldb.LayoutRow
	LayoutCol = sqldb.LayoutCol
)

// TableInfo is the schema-level description of one table, as the view
// generator and the engine's option defaulting need it. The JSON tags
// are the netbe wire form (GET /api/backend/info's payload).
type TableInfo struct {
	// Name is the table's canonical name.
	Name string `json:"name"`
	// Columns lists the table's attributes in declaration order.
	Columns []Column `json:"columns"`
	// Rows is the current row count. The phased execution framework
	// partitions [0, Rows) into scan ranges; backends without
	// SupportsPhasedExecution still report it for diagnostics.
	Rows int `json:"rows"`
	// Layout is the physical layout, which selects the engine's default
	// group-by memory budget (Figure 8a of the paper). "row" or "col" on
	// the wire.
	Layout Layout `json:"layout"`
	// Version is an opaque token for the table's contents, read together
	// with Rows: on a backend with SupportsPhasedExecution, scanning
	// [0, Rows) reads exactly the contents Version names, so one request
	// that bounds every Exec by Rows reads one table state, and the pair
	// keys its cached results. Any data change yields a token never seen
	// before. Empty means the backend cannot version the table, and
	// results over it are not cached.
	Version string `json:"version,omitempty"`
}

// VersionOf is a TableVersion answer from a TableInfo call's results:
// the Version, and whether the call succeeded with one.
func VersionOf(ti TableInfo, err error) (string, bool) {
	return ti.Version, err == nil && ti.Version != ""
}

// Lookup returns the named column (case-insensitive) and whether it
// exists.
func (ti TableInfo) Lookup(name string) (Column, bool) {
	for _, c := range ti.Columns {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return Column{}, false
}

// ExecOptions controls one query execution. The JSON tags are the netbe
// wire form (wire.QueryRequest embeds this struct), so a field added
// here travels to remote children without a second declaration.
type ExecOptions struct {
	// Lo and Hi restrict the scan to base-table rows in [Lo, Hi).
	// Hi <= 0 means "to the end of the table", whatever that is when the
	// scan starts; the engine never sends it to a backend with
	// SupportsPhasedExecution, where every Exec of a request carries the
	// row count its TableInfo read. Backends without that capability
	// must reject a sub-range rather than silently scan everything.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Workers is the intra-query scan parallelism hint. Backends without
	// an engine-side parallel scan ignore it.
	Workers int `json:"workers,omitempty"`
}

// partialKey carries the per-request degraded-results opt-in through
// the context. Introspection calls (TableInfo, TableStats) have no
// options parameter, and interface wrappers (locking guards, fault
// injectors) defeat optional-interface assertions — the context is the
// one channel that reaches a routing backend through both, so it is the
// only one: Exec reads it too.
type partialKey struct{}

// WithAllowPartial marks ctx as opted into degraded results. Routing
// backends (internal/backend/shardbe) then skip child shards that are
// unavailable (hard failure or open circuit breaker) on every call —
// Exec, TableInfo, TableStats — and merge over the survivors, reporting
// the omission in ExecStats.ShardsDegraded/DegradedShards. Leaf backends
// ignore it: a single store is either available or not. The netbe wire
// carries it as the allow_partial field of a query request.
func WithAllowPartial(ctx context.Context) context.Context {
	return context.WithValue(ctx, partialKey{}, true)
}

// AllowPartialFrom reports whether ctx carries the degraded-results
// opt-in set by WithAllowPartial.
func AllowPartialFrom(ctx context.Context) bool {
	b, _ := ctx.Value(partialKey{}).(bool)
	return b
}

// decomposableKey carries the decomposable-statement mark through the
// context.
type decomposableKey struct{}

// WithDecomposable marks ctx's Exec calls as running decomposable
// statements over table: grouped aggregations, or UNION ALLs of them
// over that one table, whose every aggregate is SUM, COUNT, MIN or MAX
// of a column and whose other items are group keys and constants, with
// no HAVING, ORDER BY, DISTINCT or LIMIT. Any row partition can run such
// a statement as written, and the caller promises to fold the
// partitions' partial rows itself. A routing backend
// (internal/backend/shardbe) then sends the text to its children
// unchanged and returns their rows in child order with each child's
// boundary in Rows.Parts, instead of re-planning the statement and
// merging the partials. Leaf backends ignore the mark. Like the partial
// opt-in it travels in the context, through every wrapper; the netbe
// wire does not carry it, so a remote router merges as for any caller.
// An empty table withdraws the mark. The engine marks the statements it
// sends and nothing else, so user SQL keeps the merge.
func WithDecomposable(ctx context.Context, table string) context.Context {
	return context.WithValue(ctx, decomposableKey{}, table)
}

// DecomposableFrom returns the table ctx's decomposable-statement mark
// names (WithDecomposable), and whether ctx carries one.
func DecomposableFrom(ctx context.Context) (table string, ok bool) {
	table, _ = ctx.Value(decomposableKey{}).(string)
	return table, table != ""
}

// pinKey carries a request's pin through the context.
type pinKey struct{}

// WithPin opens a pin on ctx for one request (core opens one per
// Recommend). A backend that reads table state it must hold fixed for
// the whole request — the shard router's per-child row counts — keeps it
// through Pinned, so every later call on ctx reuses that one read. Like
// the partial opt-in it travels in the context because the context
// passes through every wrapper. A ctx that already carries a pin is
// returned as it is, so a backend call that opens its own pin (the
// router's TableStats) joins the request's when it runs inside one.
func WithPin(ctx context.Context) context.Context {
	if _, ok := ctx.Value(pinKey{}).(*sync.Map); ok {
		return ctx
	}
	return context.WithValue(ctx, pinKey{}, new(sync.Map))
}

// Pinned returns the value ctx's pin holds under key, calling read to
// fill it on first use; concurrent first uses all return the one value
// that was stored. Without a pin on ctx it just calls read. A failed
// read pins nothing.
func Pinned[T any](ctx context.Context, key any, read func() (T, error)) (T, error) {
	pin, _ := ctx.Value(pinKey{}).(*sync.Map)
	if pin != nil {
		if v, ok := pin.Load(key); ok {
			return v.(T), nil
		}
	}
	v, err := read()
	if err != nil || pin == nil {
		return v, err
	}
	stored, _ := pin.LoadOrStore(key, v)
	return stored.(T), nil
}

// Rows is a fully materialized query result: named columns over rows of
// engine scalars.
type Rows struct {
	Columns []string
	Rows    [][]Value
	// Parts is nil on a final result. A routing backend sets it only on
	// the result of a decomposable statement (WithDecomposable) that
	// more than one partition answered: part i is
	// Rows[Parts[i-1]:Parts[i]] (Parts[-1] read as 0), partition i's
	// partial rows in its own order, partitions in row-space order. A
	// group then has one partial row per part that holds it, and the
	// caller folds them.
	Parts []int
}

// Capabilities declares which engine optimizations a backend can
// support. The engine consults them once per request and degrades
// gracefully: a missing capability changes cost, never correctness. The
// JSON tags are the netbe wire form (wire.Handshake embeds this struct).
type Capabilities struct {
	// SupportsPhasedExecution reports whether Exec honors the
	// ExecOptions.Lo/Hi row-range restriction, which SeeDB's phased
	// execution framework (Section 3) needs to process the i-th of n
	// partitions. Without it the engine rewrites COMB/COMB_EARLY
	// requests to the single-pass SHARING strategy.
	SupportsPhasedExecution bool `json:"supports_phased_execution"`
}

// Backend is a data store the SeeDB engine can recommend over.
//
// Implementations must be safe for concurrent use: the engine issues
// view queries from a worker pool, and one backend may serve many
// concurrent Recommend invocations.
type Backend interface {
	// Name identifies the backend implementation (e.g. "sqldb", "sql").
	// It namespaces cache version tokens, so two backends over
	// coincidentally same-named tables never share cache entries.
	Name() string
	// Capabilities reports which optional engine optimizations this
	// backend supports.
	Capabilities() Capabilities
	// TableInfo returns the schema-level description of a table, its
	// row count and its version token, read together. A missing table
	// is reported as ErrNoTable (possibly wrapped); any other error
	// means the store could not be introspected — callers must not
	// conflate the two (an outage is not a bad table name).
	// Introspection must honor ctx cancellation, like Exec: a cancelled
	// ctx is an error.
	TableInfo(ctx context.Context, table string) (TableInfo, error)
	// TableVersion returns TableInfo's Version, and whether there is
	// one. Any data change must yield a token never seen before; the
	// shared result cache embeds it in every key, which is what makes
	// invalidation purely versioned. Backends that cannot observe
	// external writes return an instance-scoped token and document the
	// staleness window. A cancelled ctx reports the table as absent.
	TableVersion(ctx context.Context, table string) (string, bool)
	// TableStats returns per-column statistics for the view generator
	// and the bin-packing optimizer, honoring ctx cancellation.
	TableStats(ctx context.Context, table string) (*TableStats, error)
	// Exec runs one SQL query and returns the materialized result and
	// its execution stats. The query text is generated by the engine's
	// query builder (SELECT ... FROM t [WHERE ...] GROUP BY ... with
	// optional CASE-flag group columns); ctx cancellation must abort
	// long scans.
	Exec(ctx context.Context, query string, opts ExecOptions) (*Rows, ExecStats, error)
}
