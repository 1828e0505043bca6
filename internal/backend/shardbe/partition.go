package shardbe

import (
	"fmt"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// Blocks assigns contiguous row blocks. With Total > 0, row seq goes to
// shard min(seq*shards/Total, shards-1): shard i of n gets global rows
// [⌈i·Total/n⌉, ⌈(i+1)·Total/n⌉), and the last shard also every row at
// or past Total. With Total ≤ 0 every row goes to shard 0. It preserves
// order — the router's shard-major global row space then equals the
// original insertion order, which is what makes sharded execution
// bit-identical to an unsharded scan (first-seen group order, phased
// row-range subsets). It needs the total row count up front, so it fits
// bulk loads, not streaming appends.
type Blocks struct {
	Total int
}

// span returns the rows [lo, hi) of a rows-row table that shard i of
// shards gets.
func (b Blocks) span(i, shards, rows int) (lo, hi int) {
	if b.Total <= 0 {
		if i == 0 {
			return 0, rows
		}
		return rows, rows
	}
	start := func(i int) int { return min((i*b.Total+shards-1)/shards, rows) }
	lo, hi = start(i), start(i+1)
	if i == shards-1 {
		hi = rows
	}
	return lo, hi
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

// ScatterTable copies one table from src into the child databases, one
// Blocks span per child, each with sqldb.CopyRange: a typed copy of the
// source's storage, so every child equals the table appending its rows
// (in any batches) would build, dictionary order and NULL vectors
// included.
// Existing same-named child tables are dropped first, so re-scattering
// after source writes refreshes every shard — and bumps the child
// versions the router's version vector is built from, which is what
// invalidates cached results.
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
		ct, err := db.CreateTable(t.Name(), t.Schema(), t.Layout())
		if err != nil {
			return err
		}
		lo, hi := part.span(i, len(children), rows)
		if err := sqldb.CopyRange(ct, t, lo, hi); err != nil {
			return fmt.Errorf("shardbe: shard %d: %w", i, err)
		}
	}
	return nil
}

// AppendRows routes new rows into the child databases round-robin by
// the table's global sequence number, continued from the current total
// row count (so repeated appends stay deterministic), all or nothing:
// the table must exist on every child (CreateTable or ScatterTable
// first) and every row must suit its schema before any row is written.
// Each child then takes its rows, in order, as one sqldb Append.
func AppendRows(children []*sqldb.DB, table string, rows [][]sqldb.Value) error {
	tabs, err := ChildTables(children, table)
	if err != nil {
		return err
	}
	if err := tabs[0].Schema().CheckRows(rows); err != nil {
		return fmt.Errorf("shardbe: table %s: %w", table, err)
	}
	seq := 0
	for _, t := range tabs {
		seq += t.NumRows()
	}
	parts := make([][][]sqldb.Value, len(tabs))
	for i, row := range rows {
		c := (seq + i) % len(tabs)
		parts[c] = append(parts[c], row)
	}
	for c, part := range parts {
		if err := tabs[c].Append(part); err != nil {
			return fmt.Errorf("shardbe: shard %d: %w", c, err)
		}
	}
	return nil
}

// ChildTables looks table up on every child, failing when any child
// lacks it.
func ChildTables(children []*sqldb.DB, table string) ([]sqldb.Table, error) {
	tabs := make([]sqldb.Table, len(children))
	for i, db := range children {
		t, ok := db.Table(table)
		if !ok {
			return nil, fmt.Errorf("shardbe: table %q does not exist on shard %d", table, i)
		}
		tabs[i] = t
	}
	return tabs, nil
}
