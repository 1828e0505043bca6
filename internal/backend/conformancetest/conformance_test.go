package conformancetest

import (
	"context"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/sqlbe"
	"seedb/internal/sqldb"
	"seedb/internal/sqldb/difftest"
	"seedb/internal/sqldriver"
)

// TestEmbeddedConformance runs the suite against the embedded sqldb
// adapter — the reference implementation must (trivially but
// verifiably) conform to itself, including counters and caching.
func TestEmbeddedConformance(t *testing.T) {
	t.Parallel()
	Harness{New: embedded}.Run(t)
}

// embedded serves db in process.
func embedded(_ testing.TB, db *sqldb.DB) backend.Backend { return backend.NewEmbedded(db) }

// TestSQLBackendConformance runs the suite against the database/sql
// backend, reaching the same source data through the sqldriver stub —
// the full external-store path: SQL text → database/sql → driver →
// store and row values back up through driver-value conversion. The
// store rejects a UNION ALL a typed SQL store would (typedUnions).
func TestSQLBackendConformance(t *testing.T) {
	t.Parallel()
	Harness{
		New: func(tb testing.TB, db *sqldb.DB) backend.Backend {
			return typedUnions{Backend: sqlbe.New(sqldriver.Open(db), sqlbe.Options{}), db: db}
		},
		// sqlbe's instance-scoped versions cannot observe writes to the
		// source store; the operator contract is to bump on change.
		Invalidate: func(be backend.Backend) {
			be.(typedUnions).BumpVersion()
		},
	}.Run(t)
}

// typedUnions is a sqlbe backend whose store types a UNION ALL the way a
// typed SQL store does (difftest.CheckTypedUnion): the sqldriver stub
// accepts a NULL in any column, PostgreSQL does not.
type typedUnions struct {
	*sqlbe.Backend
	db *sqldb.DB
}

func (b typedUnions) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	if stmt, err := sqldb.Parse(query); err == nil && len(stmt.UnionAll) > 0 {
		if t, ok := b.db.Table(stmt.Table); ok {
			if err := difftest.CheckTypedUnion(stmt, t.Schema()); err != nil {
				return nil, backend.ExecStats{}, err
			}
		}
	}
	return b.Backend.Exec(ctx, query, opts)
}
