// Package sqlbe implements a SeeDB backend over Go's database/sql,
// pushing the engine's combined CASE-flag aggregate queries down to any
// external SQL store a database/sql driver can reach.
//
// Capability profile (see docs/BACKENDS.md for the full matrix): the
// backend does not declare SupportsPhasedExecution — generic SQL has no
// portable "scan rows [lo, hi)" primitive — so the engine runs
// single-pass SHARING plans
// against it: combined aggregates, bin-packed GROUP BYs and the combined
// target/reference rewrite all still apply, because they are plain SQL.
//
// Schema introspection works on any store: column names and types come
// from database/sql column metadata (DatabaseTypeName) with a
// sampled-value fallback for drivers that report none, and per-column
// distinct counts come from one COUNT(DISTINCT ...) query.
//
// Dataset versioning: an external store cannot push invalidations, so
// TableInfo's Version is an instance-scoped generation token — cached
// results stay valid until BumpVersion is called (or a custom
// Options.Version function supplies real versions, e.g. from an
// updated_at watermark). Deployments whose data changes outside SeeDB
// must wire one of the two or disable caching.
package sqlbe

import (
	"context"
	"database/sql"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// Options configures a Backend.
type Options struct {
	// Name labels the backend instance (default "sql"). It namespaces
	// cache version tokens, so give distinct names to distinct stores.
	Name string
	// Layout declares the store's physical layout, which selects the
	// engine's default group-by memory budget. The zero value is
	// LayoutRow, the conservative choice for general-purpose stores.
	Layout backend.Layout
	// SampleRows bounds the rows sampled to infer column types when the
	// driver reports no usable metadata (default 128).
	SampleRows int
	// Version, when non-nil, supplies the dataset-version token for a
	// table (return ok=false for "unknown table"). Use it to plug in a
	// real change watermark; when nil, versions are instance-scoped and
	// advance only via BumpVersion.
	Version func(table string) (version string, ok bool)
}

// Backend runs SeeDB view queries against a database/sql handle.
type Backend struct {
	db   *sql.DB
	opts Options
	id   uint64
	gen  atomic.Uint64

	mu   sync.Mutex
	meta map[string]*tableMeta // introspection memo, one entry per table
}

// tableMeta memoizes one table's introspection under the version token
// it was computed at. A version change (BumpVersion, or a new token
// from Options.Version) replaces the entry, so the memo holds at most
// one generation per table and never serves metadata from a superseded
// one.
type tableMeta struct {
	version string
	info    backend.TableInfo
	stats   *backend.TableStats // nil until TableStats computes them
}

// ids hands out process-unique instance ids for version tokens.
var ids atomic.Uint64

// New wraps db as a SeeDB backend.
func New(db *sql.DB, opts Options) *Backend {
	if opts.Name == "" {
		opts.Name = "sql"
	}
	if opts.SampleRows <= 0 {
		opts.SampleRows = 128
	}
	return &Backend{
		db:   db,
		opts: opts,
		id:   ids.Add(1),
		meta: make(map[string]*tableMeta),
	}
}

// Name identifies this backend instance.
func (b *Backend) Name() string { return b.opts.Name }

// Capabilities: generic SQL supports neither row-range scans nor the
// engine-side vectorized executor; the engine degrades COMB/COMB_EARLY
// to SHARING and runs queries serially inside the store.
func (b *Backend) Capabilities() backend.Capabilities {
	return backend.Capabilities{}
}

// BumpVersion advances the instance-scoped dataset version,
// invalidating every cached result and memoized introspection computed
// against this backend. Call it after the external store's data changes
// (no-op when Options.Version supplies real versions — those invalidate
// by changing on their own).
func (b *Backend) BumpVersion() { b.gen.Add(1) }

// TableVersion is TableInfo's Version. A configured version function
// answers on its own, without probing the store; a cancelled ctx still
// reports the table absent.
func (b *Backend) TableVersion(ctx context.Context, table string) (string, bool) {
	if b.opts.Version != nil && (ctx == nil || ctx.Err() == nil) {
		v := b.version(table)
		return v, v != ""
	}
	return backend.VersionOf(b.TableInfo(ctx, table))
}

// version is the table's dataset-version token, which also keys the
// introspection memo: the configured version function's token (so fresh
// watermarks re-introspect), else the instance-scoped generation token.
// "" means the version source does not know the table; nothing is
// memoized or cached then.
func (b *Backend) version(table string) string {
	if b.opts.Version != nil {
		v, ok := b.opts.Version(table)
		if !ok {
			return ""
		}
		return v
	}
	return fmt.Sprintf("%d.%d", b.id, b.gen.Load())
}

// lookupMeta returns the memo entry for table if it is current.
func (b *Backend) lookupMeta(table, version string) (*tableMeta, bool) {
	if version == "" {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	tm, ok := b.meta[strings.ToLower(table)]
	if !ok || tm.version != version {
		return nil, false
	}
	return tm, true
}

// storeMeta installs (replacing any superseded generation) a memo entry.
func (b *Backend) storeMeta(table string, tm *tableMeta) {
	if tm.version == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.meta[strings.ToLower(table)] = tm
}

// TableInfo introspects a table by probing it with a sampled SELECT *.
// A failed probe surfaces the store's error (which is how a genuinely
// missing table reports itself, in the store's own words). The probe
// queries run under ctx, so introspecting a slow external store is
// cancellable, not just Exec.
func (b *Backend) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	if ctx != nil && ctx.Err() != nil {
		// Even a memoized answer is refused: the contract is that a
		// cancelled ctx fails introspection.
		return backend.TableInfo{}, ctx.Err()
	}
	// The token is read before the probe it describes: a write in between
	// lands under this older token, which no later request asks for.
	version := b.version(table)
	if tm, ok := b.lookupMeta(table, version); ok {
		return tm.info, nil
	}
	ti, err := b.introspect(ctx, table)
	if err != nil {
		return backend.TableInfo{}, fmt.Errorf("sqlbe: introspecting %s: %w", table, err)
	}
	ti.Version = version
	b.storeMeta(table, &tableMeta{version: version, info: ti})
	return ti, nil
}

// validIdent accepts plain (optionally schema-qualified, for tables)
// SQL identifiers: letters, digits and underscores, dot-separated.
// Everything interpolated into generated SQL must pass it, so a
// request-supplied "table" like "(SELECT ...) s" can never smuggle a
// subquery into the store. Reserved words and exotic quoting are out of
// scope — the engine interpolates raw identifiers everywhere, so names
// needing quotes are unsupported across the system, not just here.
var validIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)

// checkIdent rejects identifiers that cannot be safely interpolated.
func checkIdent(kind, name string) error {
	if !validIdent.MatchString(name) {
		return fmt.Errorf("sqlbe: invalid %s identifier %q", kind, name)
	}
	return nil
}

// introspect samples the table for column names/types and counts rows.
func (b *Backend) introspect(ctx context.Context, table string) (backend.TableInfo, error) {
	if err := checkIdent("table", table); err != nil {
		return backend.TableInfo{}, err
	}
	rows, err := b.db.QueryContext(ctx, fmt.Sprintf("SELECT * FROM %s LIMIT %d", table, b.opts.SampleRows))
	if err != nil {
		return backend.TableInfo{}, err
	}
	defer rows.Close()
	names, err := rows.Columns()
	if err != nil {
		return backend.TableInfo{}, err
	}
	colTypes, _ := rows.ColumnTypes()

	cols := make([]backend.Column, len(names))
	resolved := make([]bool, len(names))
	for i, n := range names {
		cols[i] = backend.Column{Name: n, Type: backend.TypeString}
		if colTypes != nil && i < len(colTypes) {
			if ct, ok := typeFromDatabaseTypeName(colTypes[i].DatabaseTypeName()); ok {
				cols[i].Type = ct
				resolved[i] = true
			}
		}
	}

	// Fallback: infer unresolved column types from sampled values.
	dest := make([]any, len(names))
	ptrs := make([]any, len(names))
	for i := range dest {
		ptrs[i] = &dest[i]
	}
	sampled := make([]bool, len(names))
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return backend.TableInfo{}, err
		}
		for i, v := range dest {
			if resolved[i] || v == nil {
				continue
			}
			ct, ok := typeFromValue(v)
			if !ok {
				continue
			}
			switch {
			case !sampled[i]:
				cols[i].Type = ct
				sampled[i] = true
			case cols[i].Type == backend.TypeInt && ct == backend.TypeFloat:
				// A column mixing int and float values is a float column.
				cols[i].Type = backend.TypeFloat
			}
		}
	}
	if err := rows.Err(); err != nil {
		return backend.TableInfo{}, err
	}

	var count int
	if err := b.db.QueryRowContext(ctx, fmt.Sprintf("SELECT COUNT(*) FROM %s", table)).Scan(&count); err != nil {
		return backend.TableInfo{}, err
	}
	return backend.TableInfo{Name: table, Columns: cols, Rows: count, Layout: b.opts.Layout}, nil
}

// TableStats computes per-column distinct counts with one
// COUNT(DISTINCT ...) query over the table, run under ctx (the query
// scans the whole table on most stores, so cancellation matters here
// most of all).
func (b *Backend) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	version := b.version(table)
	if tm, ok := b.lookupMeta(table, version); ok && tm.stats != nil {
		return tm.stats, nil
	}
	ti, err := b.TableInfo(ctx, table)
	if err != nil {
		return nil, err
	}

	exprs := make([]string, len(ti.Columns))
	for i, c := range ti.Columns {
		if err := checkIdent("column", c.Name); err != nil {
			return nil, err
		}
		exprs[i] = fmt.Sprintf("COUNT(DISTINCT %s)", c.Name)
	}
	q := fmt.Sprintf("SELECT %s FROM %s", strings.Join(exprs, ", "), table)
	counts := make([]int, len(ti.Columns))
	ptrs := make([]any, len(counts))
	for i := range counts {
		ptrs[i] = &counts[i]
	}
	if err := b.db.QueryRowContext(ctx, q).Scan(ptrs...); err != nil {
		return nil, fmt.Errorf("sqlbe: distinct counts for %s: %w", table, err)
	}
	ts := &backend.TableStats{Rows: ti.Rows, Columns: make([]backend.ColumnStats, len(ti.Columns))}
	for i, c := range ti.Columns {
		ts.Columns[i] = backend.ColumnStats{Name: c.Name, Type: c.Type, Distinct: counts[i]}
	}
	b.storeMeta(table, &tableMeta{version: version, info: ti, stats: ts})
	return ts, nil
}

// Exec runs one generated view query. Row-range restrictions are
// rejected — the backend declares no SupportsPhasedExecution, and
// silently scanning the whole table instead of a partition would
// corrupt phased estimates. Only SELECT statements are accepted: the
// engine never generates anything else, and refusing the rest keeps
// every surface that forwards query text here (e.g. the server's
// /api/query) read-only against the external store.
func (b *Backend) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	if opts.Lo > 0 || opts.Hi > 0 {
		return nil, backend.ExecStats{}, fmt.Errorf("sqlbe: row-range scans are not supported (SupportsPhasedExecution is false)")
	}
	if err := checkReadOnly(query); err != nil {
		return nil, backend.ExecStats{}, err
	}
	ctx, sp := telemetry.StartSpan(ctx, "sqlbe.exec")
	defer sp.End()
	rows, err := b.db.QueryContext(ctx, query)
	if err != nil {
		return nil, backend.ExecStats{}, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, backend.ExecStats{}, err
	}
	// Result-column metadata drives []byte/string → number conversion:
	// several mainstream drivers (go-sql-driver/mysql for most columns,
	// lib/pq for NUMERIC) return numeric cells as []byte, which would
	// otherwise become string Values the engine's aggregate merger
	// silently skips.
	declared := make([]backend.ColumnType, len(cols))
	known := make([]bool, len(cols))
	if colTypes, err := rows.ColumnTypes(); err == nil {
		for i, ct := range colTypes {
			if i < len(declared) {
				declared[i], known[i] = typeFromDatabaseTypeName(ct.DatabaseTypeName())
			}
		}
	}
	out := &backend.Rows{Columns: cols}
	dest := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range dest {
		ptrs[i] = &dest[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, backend.ExecStats{}, err
		}
		row := make([]backend.Value, len(cols))
		for i, v := range dest {
			row[i], err = toValue(v)
			if err != nil {
				return nil, backend.ExecStats{}, fmt.Errorf("sqlbe: column %s: %w", cols[i], err)
			}
			if known[i] && row[i].Kind == sqldb.KindString {
				row[i], err = coerceNumeric(row[i], declared[i])
				if err != nil {
					return nil, backend.ExecStats{}, fmt.Errorf("sqlbe: column %s: %w", cols[i], err)
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	if err := rows.Err(); err != nil {
		return nil, backend.ExecStats{}, err
	}
	// RowsScanned stays 0: a generic SQL store does not expose how many
	// base rows the aggregation visited (documented degradation).
	stats := backend.ExecStats{Groups: len(out.Rows), Workers: 1}
	return out, stats, nil
}

// checkReadOnly accepts exactly one SELECT statement. The engine never
// generates anything else, and refusing the rest keeps every surface
// that forwards query text here (e.g. the server's /api/query)
// read-only against the external store: a trailing statement after a
// semicolon ("SELECT 1; DROP TABLE t") would be executed by several
// drivers.
func checkReadOnly(query string) error {
	q := strings.TrimSpace(query)
	q = strings.TrimSuffix(q, ";")
	if !strings.HasPrefix(strings.ToUpper(q), "SELECT") {
		return fmt.Errorf("sqlbe: only SELECT statements are supported (read-only backend)")
	}
	inStr := false
	for i := 0; i < len(q); i++ {
		switch {
		case q[i] == '\'':
			inStr = !inStr // doubled '' toggles twice: net unchanged
		case q[i] == ';' && !inStr:
			return fmt.Errorf("sqlbe: multi-statement queries are not supported (read-only backend)")
		}
	}
	return nil
}

// coerceNumeric parses a string cell whose result-column metadata
// declares a numeric type. A declared-numeric cell that does not parse
// is a loud error — silently keeping it as a string would make the
// engine's merger skip it and corrupt distributions without a trace.
func coerceNumeric(v backend.Value, declared backend.ColumnType) (backend.Value, error) {
	switch declared {
	case backend.TypeInt:
		i, err := strconv.ParseInt(v.S, 10, 64)
		if err != nil {
			// Some stores report wide/decimal ints that only fit a float.
			f, ferr := strconv.ParseFloat(v.S, 64)
			if ferr != nil {
				return v, fmt.Errorf("declared integer value %q does not parse: %w", v.S, err)
			}
			return sqldb.Float(f), nil
		}
		return sqldb.Int(i), nil
	case backend.TypeFloat:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return v, fmt.Errorf("declared numeric value %q does not parse: %w", v.S, err)
		}
		return sqldb.Float(f), nil
	default:
		return v, nil
	}
}

// toValue converts one database/sql scan result into an engine scalar.
func toValue(v any) (backend.Value, error) {
	switch x := v.(type) {
	case nil:
		return sqldb.Null(), nil
	case int64:
		return sqldb.Int(x), nil
	case float64:
		return sqldb.Float(x), nil
	case bool:
		return sqldb.Bool(x), nil
	case string:
		return sqldb.Str(x), nil
	case []byte:
		return sqldb.Str(string(x)), nil
	default:
		return sqldb.Null(), fmt.Errorf("unsupported driver value %T", v)
	}
}

// typeFromDatabaseTypeName maps a driver's declared column type to an
// engine column type. Unknown or empty names report ok=false and fall
// back to sampling.
func typeFromDatabaseTypeName(name string) (backend.ColumnType, bool) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "MEDIUMINT",
		"INT2", "INT4", "INT8", "SERIAL", "BIGSERIAL":
		return backend.TypeInt, true
	case "REAL", "FLOAT", "FLOAT4", "FLOAT8", "DOUBLE", "DOUBLE PRECISION",
		"NUMERIC", "DECIMAL":
		return backend.TypeFloat, true
	case "BOOL", "BOOLEAN", "BIT":
		return backend.TypeBool, true
	case "TEXT", "VARCHAR", "CHAR", "NCHAR", "NVARCHAR", "CHARACTER",
		"CHARACTER VARYING", "STRING", "UUID":
		return backend.TypeString, true
	default:
		return backend.TypeString, false
	}
}

// typeFromValue infers a column type from one sampled non-NULL value.
func typeFromValue(v any) (backend.ColumnType, bool) {
	switch v.(type) {
	case int64:
		return backend.TypeInt, true
	case float64:
		return backend.TypeFloat, true
	case bool:
		return backend.TypeBool, true
	case string, []byte:
		return backend.TypeString, true
	default:
		return backend.TypeString, false
	}
}
