package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"seedb/internal/telemetry"
)

// DB is an embedded in-memory database: a named collection of tables plus
// a query interface. A DB is safe for concurrent queries, and appends may
// run alongside them (see Table); appends to one table are serialized by
// the caller. Each table incarnation keeps incremental statistics
// (StatsContext) that cost O(appended rows) per new version and are
// dropped with it.
type DB struct {
	mu     sync.RWMutex
	tables map[string]Table
	// epochs counts catalog events (create/register/drop) per table name.
	// Together with the table's row count it forms the dataset
	// version token that drives cache invalidation: dropping and
	// reloading a table bumps the epoch, so entries cached under the old
	// incarnation can never be served again.
	epochs map[string]uint64
	// stats holds the current incarnation's incremental statistics per
	// table name (see StatsContext); DropTable deletes the entry.
	stats map[string]*statsState
	// id is process-unique, so version tokens from different DB
	// instances never collide (a result cache may be shared by engines
	// over different databases that hold same-named tables).
	id uint64
}

// dbIDs hands out process-unique DB instance ids.
var dbIDs atomic.Uint64

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{
		tables: make(map[string]Table),
		epochs: make(map[string]uint64),
		stats:  make(map[string]*statsState),
		id:     dbIDs.Add(1),
	}
}

// CreateTable creates a table with the given physical layout and registers
// it under name (case-insensitive).
func (db *DB) CreateTable(name string, schema *Schema, layout Layout) (Table, error) {
	if name == "" {
		return nil, fmt.Errorf("sqldb: empty table name")
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", name)
	}
	var t Table
	switch layout {
	case LayoutRow:
		t = NewRowStore(name, schema)
	case LayoutCol:
		t = NewColStore(name, schema)
	default:
		return nil, fmt.Errorf("sqldb: unknown layout %v", layout)
	}
	db.tables[key] = t
	db.epochs[key]++
	return t, nil
}

// RegisterTable registers an externally constructed table.
func (db *DB) RegisterTable(t Table) error {
	key := strings.ToLower(t.Name())
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		return fmt.Errorf("sqldb: table %q already exists", t.Name())
	}
	db.tables[key] = t
	db.epochs[key]++
	return nil
}

// DropTable removes a table; dropping a missing table is an error.
func (db *DB) DropTable(name string) error {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; !exists {
		return fmt.Errorf("sqldb: table %q does not exist", name)
	}
	delete(db.tables, key)
	delete(db.stats, key)
	db.epochs[key]++
	return nil
}

// TableVersion returns an opaque version token for the named table's
// current contents, and whether the table exists; see TableState.
func (db *DB) TableVersion(name string) (string, bool) {
	_, version, _, ok := db.TableState(name)
	return version, ok
}

// TableState reads the named table, its version token and its row
// count together, and reports whether the table exists. The token is
// "id.epoch.rows": the DB's process-unique instance id, the catalog
// epoch (bumped whenever a table of this name is created, registered or
// dropped) and the row count it was read with. Tables are append-only
// between drops, so any load, insert or drop-and-reload yields a token
// never seen before — and same-named tables in different DB instances
// never share one. A reader that scans only the first rows rows sees
// exactly the contents the token names. Cache keys embed it; stale
// entries become unreachable the moment the data changes.
func (db *DB) TableState(name string) (t Table, version string, rows int, ok bool) {
	key := strings.ToLower(name)
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok = db.tables[key]
	if !ok {
		return nil, "", 0, false
	}
	rows = t.NumRows()
	return t, fmt.Sprintf("%d.%d.%d", db.id, db.epochs[key], rows), rows, true
}

// Table returns the named table.
func (db *DB) Table(name string) (Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

// Query parses and executes sql over the full table.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryOpts(sql, ExecOptions{})
}

// QueryContext is Query with cancellation support.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.QueryOpts(sql, ExecOptions{Ctx: ctx})
}

// QueryOpts parses and executes sql with full execution options.
func (db *DB) QueryOpts(sql string, opts ExecOptions) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.QueryStmt(stmt, opts)
}

// QueryStmt executes a pre-parsed statement.
func (db *DB) QueryStmt(stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	t, ok := db.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: table %q does not exist", stmt.Table)
	}
	_, sp := telemetry.StartSpan(opts.Ctx, "sqldb.plan")
	p, err := compilePlan(stmt, t)
	sp.End()
	if err != nil {
		return nil, err
	}
	return p.execute(opts)
}

// Prepare compiles sql against the current catalog for repeated execution
// (e.g. once per phase over different row ranges).
func (db *DB) Prepare(sql string) (*PreparedQuery, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	t, ok := db.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: table %q does not exist", stmt.Table)
	}
	return &PreparedQuery{db: db, stmt: stmt, table: t}, nil
}

// PreparedQuery is a parsed, table-resolved statement. Plans are compiled
// per execution (plans hold per-run aggregation state-free closures, so a
// fresh compile keeps executions independent and concurrency-safe).
type PreparedQuery struct {
	db    *DB
	stmt  *SelectStmt
	table Table
}

// SQL returns the canonical SQL text of the prepared statement.
func (q *PreparedQuery) SQL() string { return q.stmt.String() }

// Exec executes the prepared query with the given options.
func (q *PreparedQuery) Exec(opts ExecOptions) (*Result, error) {
	_, sp := telemetry.StartSpan(opts.Ctx, "sqldb.plan")
	p, err := compilePlan(q.stmt, q.table)
	sp.End()
	if err != nil {
		return nil, err
	}
	return p.execute(opts)
}
