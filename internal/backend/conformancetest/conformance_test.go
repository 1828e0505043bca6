package conformancetest

import (
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/sqlbe"
	"seedb/internal/sqldb"
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
// store and row values back up through driver-value conversion.
func TestSQLBackendConformance(t *testing.T) {
	t.Parallel()
	Harness{
		New: func(tb testing.TB, db *sqldb.DB) backend.Backend {
			return sqlbe.New(sqldriver.Open(db), sqlbe.Options{})
		},
		// sqlbe's instance-scoped versions cannot observe writes to the
		// source store; the operator contract is to bump on change.
		Invalidate: func(be backend.Backend) {
			be.(*sqlbe.Backend).BumpVersion()
		},
	}.Run(t)
}
