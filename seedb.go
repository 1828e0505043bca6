// Package seedb is a from-scratch Go implementation of SeeDB, the
// visualization recommendation engine of Vartak et al., "SeeDB: Efficient
// Data-Driven Visualization Recommendations to Support Visual Analytics"
// (PVLDB 8(13), 2015).
//
// Given a query selecting a subset of a table, SeeDB evaluates every
// candidate aggregate view (dimension, measure, aggregate) and recommends
// the k whose target-vs-reference distributions deviate most — the
// paper's deviation-based utility. The execution engine applies the
// paper's sharing optimizations (multi-aggregate queries, bin-packed
// multi-attribute GROUP BYs, combined target/reference queries, parallel
// execution) and pruning optimizations (Hoeffding–Serfling confidence
// intervals and multi-armed-bandit successive accepts/rejects) through a
// phased execution framework.
//
// A minimal session:
//
//	client := seedb.New()
//	if err := client.LoadDataset("census", seedb.ColumnLayout); err != nil { ... }
//	res, err := client.Recommend(ctx, seedb.Request{
//		Table:       "census",
//		TargetWhere: "marital = 'Unmarried'",
//	}, seedb.Options{K: 5, Strategy: seedb.Comb, Pruning: seedb.CIPruning})
//	for _, rec := range res.Recommendations {
//		fmt.Println(seedb.RenderChart(rec))
//	}
//
// The engine runs on an embedded pure-Go DBMS (internal/sqldb) offering
// both a row-oriented and a column-oriented physical layout, mirroring
// the ROW and COL systems of the paper's evaluation.
package seedb

import (
	"context"
	"database/sql"
	"fmt"
	"io"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/backend/sqlbe"
	"seedb/internal/cache"
	"seedb/internal/chart"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// Re-exported request/response types. These alias the engine's types so
// downstream code only imports this package.
type (
	// Request describes one recommendation invocation.
	Request = core.Request
	// Options tunes the execution engine.
	Options = core.Options
	// Result is the output of Recommend.
	Result = core.Result
	// Recommendation is one scored view with its distributions.
	Recommendation = core.Recommendation
	// View is a candidate aggregate view (dimension, measure, agg).
	View = core.View
	// AggFunc names an aggregate function.
	AggFunc = core.AggFunc
	// Metrics reports execution cost.
	Metrics = core.Metrics
	// Strategy selects the execution strategy.
	Strategy = core.Strategy
	// PruningScheme selects the pruning optimization.
	PruningScheme = core.PruningScheme
	// RefMode selects the reference dataset.
	RefMode = core.RefMode

	// Schema describes a table's columns.
	Schema = sqldb.Schema
	// Column is one schema column.
	Column = sqldb.Column
	// Value is the engine's runtime scalar.
	Value = sqldb.Value
	// SQLResult is a raw SQL query result (the manual, mixed-initiative
	// side of the frontend).
	SQLResult = sqldb.Result
	// Layout selects a physical storage layout.
	Layout = sqldb.Layout

	// CacheStats is a snapshot of the shared result cache's counters.
	CacheStats = cache.Stats

	// Backend is the pluggable store seam: the engine talks to the data
	// through this interface, so Recommend can run against the embedded
	// store or any external SQL store. See docs/BACKENDS.md.
	Backend = backend.Backend
	// BackendCapabilities declares which engine optimizations a backend
	// supports (row-range scans for phased execution, vectorized scans).
	BackendCapabilities = backend.Capabilities
	// BackendTableInfo is a backend's schema-level table description.
	BackendTableInfo = backend.TableInfo
	// BackendExecOptions controls one backend query execution.
	BackendExecOptions = backend.ExecOptions
	// BackendExecStats reports one backend query execution's cost.
	BackendExecStats = backend.ExecStats
	// BackendRows is a materialized backend query result.
	BackendRows = backend.Rows
	// SQLBackendOptions configures a database/sql backend.
	SQLBackendOptions = sqlbe.Options
)

// DefaultCacheBudgetBytes is the result cache's default byte budget.
const DefaultCacheBudgetBytes = cache.DefaultBudgetBytes

// Re-exported constants.
const (
	// RowLayout stores tuples contiguously (the paper's ROW system).
	RowLayout = sqldb.LayoutRow
	// ColumnLayout stores typed column vectors (the paper's COL system).
	ColumnLayout = sqldb.LayoutCol

	// Execution strategies (Figure 5).
	NoOpt     = core.NoOpt
	Sharing   = core.Sharing
	Comb      = core.Comb
	CombEarly = core.CombEarly

	// Pruning schemes (Section 4.2).
	NoPruning     = core.NoPruning
	CIPruning     = core.CIPruning
	MABPruning    = core.MABPruning
	RandomPruning = core.RandomPruning

	// Reference modes (Section 2).
	RefAll        = core.RefAll
	RefComplement = core.RefComplement
	RefCustom     = core.RefCustom

	// Aggregate functions.
	AggAvg   = core.AggAvg
	AggSum   = core.AggSum
	AggCount = core.AggCount
	AggMin   = core.AggMin
	AggMax   = core.AggMax

	// Column types.
	TypeInt    = sqldb.TypeInt
	TypeFloat  = sqldb.TypeFloat
	TypeString = sqldb.TypeString
	TypeBool   = sqldb.TypeBool
)

// NewSchema builds a table schema from columns.
func NewSchema(cols ...Column) (*Schema, error) { return sqldb.NewSchema(cols...) }

// Value constructors for appending rows (AppendRows).
var (
	// Null returns the SQL NULL value.
	Null = sqldb.Null
	// Int returns an integer value.
	Int = sqldb.Int
	// Float returns a floating-point value.
	Float = sqldb.Float
	// Str returns a string value.
	Str = sqldb.Str
	// Bool returns a boolean value.
	Bool = sqldb.Bool
)

// Client is a SeeDB session: a backend (by default an embedded
// in-memory database) plus the recommendation engine. It is safe for
// concurrent use once loading has finished; AppendRows may also run
// alongside recommendations (each reads the rows present when it
// starts), but concurrent AppendRows calls must be serialized by the
// caller.
type Client struct {
	db       *sqldb.DB   // the store loads and appends write to; nil for external backends
	shardDBs []*sqldb.DB // sharded clients: the child stores, which view db's tables
	engine   *core.Engine
}

// New creates a client with an empty embedded in-memory database.
func New() *Client {
	db := sqldb.NewDB()
	return &Client{db: db, engine: core.NewEngine(backend.NewEmbedded(db))}
}

// NewSharded creates a client whose engine runs against a shard router
// over n embedded child stores (n <= 1 falls back to New). The client
// keeps its tables in a private store, and each child holds a view of
// one contiguous block of every table (the order-preserving block
// partitioner, so sharded execution reproduces an unsharded scan
// exactly); rows AppendRows adds join the last shard. Recommend fans
// every view query out across the shards
// and merges decomposed partial aggregation states; see
// internal/backend/shardbe and the "Sharded execution" section of
// docs/ARCHITECTURE.md.
func NewSharded(n int) *Client {
	if n <= 1 {
		return New()
	}
	dbs, bes := shardbe.EmbeddedChildren(n)
	router, err := shardbe.New(bes, shardbe.Options{})
	if err != nil {
		panic(err) // unreachable: n >= 2 children
	}
	return &Client{db: sqldb.NewDB(), shardDBs: dbs, engine: core.NewEngine(router)}
}

// Shards reports the client's shard fan-out width (0 for unsharded
// clients).
func (c *Client) Shards() int { return len(c.shardDBs) }

// NewWithBackend creates a client whose engine runs against the given
// backend (e.g. a NewSQLBackend over an external store). Such a client
// has no embedded database: the dataset-management helpers (LoadDataset,
// LoadCSV, CreateTable) return an error, and DB returns nil; everything
// else — Recommend, Query, caching — works identically, degrading per
// the backend's declared capabilities.
func NewWithBackend(be Backend) *Client {
	return &Client{engine: core.NewEngine(be)}
}

// NewSQLBackend wraps a database/sql handle as a SeeDB backend, pushing
// the engine's combined aggregate queries down to whatever store the
// driver reaches. See docs/BACKENDS.md for the capability profile and
// cache-invalidation contract.
func NewSQLBackend(db *sql.DB, opts SQLBackendOptions) Backend {
	return sqlbe.New(db, opts)
}

// DB exposes the embedded database for direct table management. It is
// nil for clients constructed with NewWithBackend or NewSharded.
func (c *Client) DB() *sqldb.DB {
	if c.shardDBs != nil {
		return nil
	}
	return c.db
}

// Backend returns the store the client's engine executes against.
func (c *Client) Backend() Backend { return c.engine.Backend() }

// errNoEmbeddedDB reports a table-management call on an external-backend
// client.
func errNoEmbeddedDB(op string) error {
	return fmt.Errorf("seedb: %s requires the embedded database (client was built with NewWithBackend; manage data in the external store instead)", op)
}

// Datasets lists the built-in Table 1 dataset generators.
func (c *Client) Datasets() []string { return dataset.Names() }

// buildAndPlace materializes one table in the client's store and, on
// sharded clients, places views of its blocks across the shard
// children through the order-preserving block partitioner. A build
// that fails part way leaves the table it created, as on an unsharded
// client, and the shards view that table all the same.
func (c *Client) buildAndPlace(op, table string, build func(db *sqldb.DB) error) error {
	if c.db == nil {
		return errNoEmbeddedDB(op)
	}
	_, existed := c.db.Table(table)
	err := build(c.db)
	if t, ok := c.db.Table(table); ok && !existed && c.shardDBs != nil {
		if serr := shardbe.ScatterTable(c.db, table, c.shardDBs, shardbe.Blocks{Total: t.NumRows()}); err == nil {
			err = serr
		}
	}
	return err
}

// LoadDataset generates one of the built-in paper datasets (Table 1) into
// the database under its canonical name, using the given layout. On
// sharded clients the rows are partitioned across the shard children.
func (c *Client) LoadDataset(name string, layout Layout) error {
	spec, err := dataset.ByName(name)
	if err != nil {
		return err
	}
	return c.buildAndPlace("LoadDataset", spec.Name, func(db *sqldb.DB) error {
		_, err := dataset.Build(db, spec, layout)
		return err
	})
}

// LoadDatasetRows is LoadDataset with an explicit row count (the built-in
// specs default to laptop-friendly scales; pass the Table 1 sizes to
// reproduce the paper's configuration).
func (c *Client) LoadDatasetRows(name string, layout Layout, rows int) error {
	spec, err := dataset.ByName(name)
	if err != nil {
		return err
	}
	return c.buildAndPlace("LoadDatasetRows", spec.Name, func(db *sqldb.DB) error {
		_, err := dataset.Build(db, spec.WithRows(rows), layout)
		return err
	})
}

// LoadCSV loads CSV data (header row required, matching the schema) into
// a new table, partitioned across the shard children on sharded clients.
func (c *Client) LoadCSV(table string, schema *Schema, layout Layout, r io.Reader) error {
	return c.buildAndPlace("LoadCSV", table, func(db *sqldb.DB) error {
		_, err := dataset.LoadCSV(db, table, schema, layout, r)
		return err
	})
}

// CreateTable creates an empty table (viewed by every shard child on
// sharded clients); append rows with AppendRows.
func (c *Client) CreateTable(name string, schema *Schema, layout Layout) error {
	return c.buildAndPlace("CreateTable", name, func(db *sqldb.DB) error {
		_, err := db.CreateTable(name, schema, layout)
		return err
	})
}

// AppendRows appends rows to an existing table, all or nothing: a row
// with the wrong value count or a value its column cannot store fails
// the call before any row lands. On sharded clients the rows join the
// last shard, whose view of the table is open-ended, so the global row
// order stays the order rows were added in. Once rows land, the
// table's version changes and cached results for it become
// unreachable; a reader sees none of the batch or all of it.
func (c *Client) AppendRows(table string, rows [][]Value) error {
	if c.db == nil {
		return errNoEmbeddedDB("AppendRows")
	}
	t, ok := c.db.Table(table)
	if !ok {
		return fmt.Errorf("seedb: table %q does not exist", table)
	}
	return t.Append(rows)
}

// Query runs a raw SQL query — the manual chart-building path of the
// paper's mixed-initiative frontend. It routes through the client's
// backend, so it works over external stores too.
func (c *Client) Query(sql string) (*SQLResult, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext is Query with cancellation.
func (c *Client) QueryContext(ctx context.Context, sql string) (*SQLResult, error) {
	rows, stats, err := c.engine.Backend().Exec(ctx, sql, backend.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return &SQLResult{
		Columns: rows.Columns,
		Rows:    rows.Rows,
		Stats:   stats,
	}, nil
}

// Recommend evaluates the candidate view space for req and returns the
// top-k most interesting visualizations under the deviation metric.
//
// With Options.EnableCache set, whole results are reused across
// Recommend calls (and across concurrent callers, via singleflight)
// until the dataset changes; see internal/cache. Once a cache is
// installed, table statistics are reused per table version whatever the
// flag. A result served from the cache shares its Recommendations and
// AllViews with every other caller it serves: treat them, and every
// slice and map they reach, as read-only. Metrics is the caller's own.
func (c *Client) Recommend(ctx context.Context, req Request, opts Options) (*Result, error) {
	return c.engine.Recommend(ctx, req, opts)
}

// EnableCache installs a shared result cache with the given byte budget
// (<= 0 selects DefaultCacheBudgetBytes). Individual requests opt in
// with Options.EnableCache.
func (c *Client) EnableCache(budgetBytes int64) {
	c.engine.SetCache(cache.New(budgetBytes))
}

// CacheStats returns the result cache's counters (the zero snapshot
// when no cache has been created).
func (c *Client) CacheStats() CacheStats {
	if cc := c.engine.Cache(); cc != nil {
		return cc.Stats()
	}
	return CacheStats{}
}

// Engine exposes the underlying execution engine for advanced use
// (oracles, custom harnesses).
func (c *Client) Engine() *core.Engine { return c.engine }

// RenderChart renders a recommendation as a side-by-side text bar chart.
func RenderChart(rec Recommendation) string {
	title := fmt.Sprintf("%s    [utility %.4f]", rec.View.String(), rec.Utility)
	return chart.Render(title, rec.Groups, rec.Target, rec.Reference, chart.Options{})
}

// RenderChartLabeled is RenderChart with custom column titles (e.g.
// "unmarried" vs "married").
func RenderChartLabeled(rec Recommendation, targetLabel, referenceLabel string) string {
	title := fmt.Sprintf("%s    [utility %.4f]", rec.View.String(), rec.Utility)
	return chart.Render(title, rec.Groups, rec.Target, rec.Reference, chart.Options{
		TargetLabel: targetLabel, ReferenceLabel: referenceLabel,
	})
}
