package conformancetest

import (
	"fmt"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/sqldb"
)

// TestShardRouterConformance holds the shard router (2 and 4 embedded
// children) bit-identical to the unsharded embedded reference on every
// generated case, plus cache reuse and versioned invalidation. The
// embedded children keep every capability, so no strategy degrades —
// COMB and COMB_EARLY run phased on both sides.
func TestShardRouterConformance(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dchildren", n), shardedHarness(n, embedded).Run)
	}
}

// shardedHarness is the harness for a router over n children, each built
// by child over a database holding one contiguous block of the source
// table. Blocks keep the router's shard-major global row space equal to
// the source's order: phased execution then scans exactly the row
// subsets the reference scans.
//
// A drift case, and the caching and statistics sub-suites, append to the
// source and then call Invalidate; re-scattering refreshes the children
// and bumps their versions, which is what invalidates the router's
// version vector. Sub-suites and cases run sequentially, so tracking the
// most recent source is sound.
func shardedHarness(n int, child func(testing.TB, *sqldb.DB) backend.Backend) Harness {
	var (
		tb  testing.TB
		src *sqldb.DB
		dbs []*sqldb.DB
	)
	mirror := func() {
		tab, _ := src.Table(SourceTable)
		if err := shardbe.ScatterTable(src, SourceTable, dbs, shardbe.Blocks{Total: tab.NumRows()}); err != nil {
			tb.Fatal(err)
		}
	}
	return Harness{
		New: func(t testing.TB, db *sqldb.DB) backend.Backend {
			tb, src, dbs = t, db, make([]*sqldb.DB, n)
			children := make([]backend.Backend, n)
			for i := range dbs {
				dbs[i] = sqldb.NewDB()
			}
			// Scatter before the children see traffic.
			mirror()
			for i, cdb := range dbs {
				children[i] = child(t, cdb)
			}
			return route(t, children...)
		},
		Invalidate: func(backend.Backend) { mirror() },
	}
}
