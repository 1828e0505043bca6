package shardbe

import (
	"fmt"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// Blocks assigns contiguous row blocks: shard i gets global rows
// [i*Total/shards, (i+1)*Total/shards). It preserves order — the
// router's shard-major global row space then equals the original
// insertion order, which is what makes sharded execution bit-identical
// to an unsharded scan (first-seen group order, phased row-range
// subsets). It needs the total row count up front, so it fits bulk
// loads, not streaming appends.
type Blocks struct {
	Total int
}

// shard returns the shard of the row with global sequence number seq.
func (b Blocks) shard(seq, shards int) int {
	if b.Total <= 0 {
		return 0
	}
	s := seq * shards / b.Total
	if s >= shards {
		s = shards - 1
	}
	return s
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

// ScatterTable copies one table from src into the child databases,
// routing every row through part. Existing same-named child tables are
// dropped first, so re-scattering after source writes refreshes every
// shard — and bumps the child versions the router's version vector is
// built from, which is what invalidates cached results.
func ScatterTable(src *sqldb.DB, table string, children []*sqldb.DB, part Blocks) error {
	if len(children) == 0 {
		return fmt.Errorf("shardbe: scatter needs at least one child")
	}
	t, ok := src.Table(table)
	if !ok {
		return fmt.Errorf("shardbe: table %q does not exist in the source store", table)
	}
	schema := t.Schema()
	layout := t.Layout()
	tabs := make([]sqldb.Table, len(children))
	for i, db := range children {
		if _, exists := db.Table(table); exists {
			if err := db.DropTable(table); err != nil {
				return err
			}
		}
		ct, err := db.CreateTable(t.Name(), schema, layout)
		if err != nil {
			return err
		}
		tabs[i] = ct
	}

	cols := make([]int, schema.NumColumns())
	for i := range cols {
		cols[i] = i
	}
	seq := 0
	row := make([]sqldb.Value, schema.NumColumns())
	return t.ScanRange(0, t.NumRows(), cols, func(rv sqldb.RowView) error {
		for i := range row {
			row[i] = rv.Value(i)
		}
		shard := part.shard(seq, len(children))
		seq++
		return tabs[shard].AppendRow(row)
	})
}

// AppendRows routes new rows into the child databases round-robin by
// the table's global sequence number, continued from the current total
// row count (so repeated appends stay deterministic). Each child's table
// is looked up once, and the table must exist on every child (CreateTable
// or ScatterTable first) before any row is written.
func AppendRows(children []*sqldb.DB, table string, rows [][]sqldb.Value) error {
	tabs, err := ChildTables(children, table)
	if err != nil {
		return err
	}
	seq := 0
	for _, t := range tabs {
		seq += t.NumRows()
	}
	for i, row := range rows {
		if err := tabs[(seq+i)%len(tabs)].AppendRow(row); err != nil {
			return fmt.Errorf("shardbe: row %d: %w", i, err)
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
