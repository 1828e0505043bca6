package shardbe

import (
	"fmt"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// Blocks assigns contiguous row blocks. With Total > 0, row seq goes to
// shard min(seq*shards/Total, shards-1): shard i of n gets global rows
// [⌈i·Total/n⌉, ⌈(i+1)·Total/n⌉), and the last shard also every row at
// or past Total. With Total ≤ 0 every row goes to shard 0. Either way,
// rows the source appends after ScatterTable join the last shard. It
// preserves order — the router's shard-major global row space then
// equals the original insertion order, which is what makes sharded
// execution bit-identical to an unsharded scan (first-seen group order,
// phased row-range subsets).
type Blocks struct {
	Total int
}

// span returns the rows [lo, hi) of a rows-row table that shard i of
// shards gets; the last shard's span is open-ended (hi = -1).
func (b Blocks) span(i, shards, rows int) (lo, hi int) {
	start := func(i int) int {
		switch {
		case i == 0:
			return 0
		case b.Total <= 0:
			return rows
		}
		return min((i*b.Total+shards-1)/shards, rows)
	}
	if i == shards-1 {
		return start(i), -1
	}
	return start(i), start(i + 1)
}

// EmbeddedChildren creates n empty embedded stores and wraps each as a
// Backend, the in-process child set the router runs over today.
func EmbeddedChildren(n int) ([]*sqldb.DB, []backend.Backend) {
	dbs := make([]*sqldb.DB, n)
	bes := make([]backend.Backend, n)
	for i := range dbs {
		dbs[i] = sqldb.NewDB()
		bes[i] = backend.NewEmbedded(dbs[i])
	}
	return dbs, bes
}

// ScatterTable places one table of src across the child databases, one
// Blocks span per child, each a view of the source table
// (sqldb.DB.CreateView) that holds no rows. The last child's view is
// open-ended, so rows appended to the source table join the last shard
// and every other child stays fixed.
// Existing same-named child tables are dropped first, so re-scattering
// after the source table is replaced refreshes every shard — and bumps
// the child versions the router's version vector is built from, which
// is what invalidates cached results.
func ScatterTable(src *sqldb.DB, table string, children []*sqldb.DB, part Blocks) error {
	if len(children) == 0 {
		return fmt.Errorf("shardbe: scatter needs at least one child")
	}
	t, ok := src.Table(table)
	if !ok {
		return fmt.Errorf("shardbe: table %q does not exist in the source store", table)
	}
	rows := t.NumRows()
	for i, db := range children {
		if _, exists := db.Table(table); exists {
			if err := db.DropTable(table); err != nil {
				return err
			}
		}
		lo, hi := part.span(i, len(children), rows)
		if _, err := db.CreateView(t, lo, hi); err != nil {
			return fmt.Errorf("shardbe: shard %d: %w", i, err)
		}
	}
	return nil
}
