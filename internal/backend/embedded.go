package backend

import (
	"context"
	"fmt"

	"seedb/internal/sqldb"
)

// Embedded adapts the in-process sqldb store to the Backend interface
// with zero behavior change: queries, row-range scans and the parallel
// vectorized executor are delegated directly, and result rows are shared
// (not copied) with the underlying store's materialized results.
type Embedded struct {
	db *sqldb.DB
}

// NewEmbedded wraps db as a Backend.
func NewEmbedded(db *sqldb.DB) *Embedded {
	return &Embedded{db: db}
}

// Name identifies the embedded store.
func (b *Embedded) Name() string { return "sqldb" }

// Capabilities: the embedded store supports row-range scans for phased
// execution.
func (b *Embedded) Capabilities() Capabilities {
	return Capabilities{SupportsPhasedExecution: true}
}

// TableInfo describes a table from the live catalog: its row count and
// version token come from one read (sqldb's TableState), so the token
// names exactly the first Rows rows. The lookup is an in-memory map
// read, so ctx only gates entry (a cancelled context fails fast instead
// of returning metadata the caller will discard).
func (b *Embedded) TableInfo(ctx context.Context, table string) (TableInfo, error) {
	if err := ctxErr(ctx); err != nil {
		return TableInfo{}, err
	}
	t, version, rows, ok := b.db.TableState(table)
	if !ok {
		return TableInfo{}, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return TableInfo{
		Name:    t.Name(),
		Columns: t.Schema().Columns(),
		Rows:    rows,
		Layout:  t.Layout(),
		Version: version,
	}, nil
}

// TableVersion is TableInfo's Version.
func (b *Embedded) TableVersion(ctx context.Context, table string) (string, bool) {
	return VersionOf(b.TableInfo(ctx, table))
}

// TableStats returns the store's exact statistics, an immutable snapshot
// shared with every caller of the same version; a new version costs a
// scan of the appended rows only. That scan honors ctx, so the first
// introspection of a huge cold table is cancellable, not just Exec.
func (b *Embedded) TableStats(ctx context.Context, table string) (*TableStats, error) {
	return b.db.StatsContext(ctx, table)
}

// Exec executes one query with full support for row ranges and
// intra-query scan parallelism.
func (b *Embedded) Exec(ctx context.Context, query string, opts ExecOptions) (*Rows, ExecStats, error) {
	res, err := b.db.QueryOpts(query, sqldb.ExecOptions{
		Ctx:     ctx,
		Lo:      opts.Lo,
		Hi:      opts.Hi,
		Workers: opts.Workers,
	})
	if err != nil {
		return nil, ExecStats{}, err
	}
	return &Rows{Columns: res.Columns, Rows: res.Rows}, res.Stats, nil
}

// ctxErr returns ctx.Err(), tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
