package difftest

// Sharded differential sweep: every generated query executes once on
// the row interpreter over the unsharded row-layout twin and once
// through a shard router whose embedded column-store children hold
// contiguous blocks of the same rows, and
// the results must match bit for bit — row order, value kinds, float
// payload bits, RowsScanned and Groups included. The harness's float
// data is exactly summable (multiples of 0.25), so partial-sum
// reassociation across shard boundaries cannot introduce ulp noise and
// exact comparison remains a legitimate oracle, exactly as it is for the
// parallel vectorized executor.
//
// The sweep inherits the generator's whole grammar — COUNT(DISTINCT),
// string MIN, expression aggregates and group keys, HAVING, ORDER BY,
// LIMIT/OFFSET, row sub-ranges (which exercise the router's global→local
// range mapping), empty ranges and zero-row predicates — and adds the
// shard-specific edges: one shard (degenerate), shard counts that leave
// children empty, and single-row tables.

import (
	"context"
	"fmt"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/sqldb"
)

// Sharded builds a shard router over n embedded children holding
// contiguous blocks of the harness table, so the router's global row
// order equals the generated insertion order.
func (h *Harness) Sharded(shards int) (*shardbe.Router, error) {
	dbs, bes := shardbe.EmbeddedChildren(shards)
	if err := shardbe.ScatterTable(h.DB, "t", dbs, shardbe.Blocks{Total: h.rows}); err != nil {
		return nil, err
	}
	return shardbe.New(bes, shardbe.Options{})
}

// RunSharded generates and checks n queries, executing each on the row
// interpreter over the unsharded twin and through a router over the
// given shard count, once with one scan worker per child and once with
// the given count. It returns an error describing the first divergence.
func (h *Harness) RunSharded(n, shards, workers int) (Stats, error) {
	var st Stats
	router, err := h.Sharded(shards)
	if err != nil {
		return st, err
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		q := h.Gen()
		st.Queries++
		ref, err := h.reference(q)
		if err != nil {
			return st, fmt.Errorf("query %d interpreter failed: %v (sql: %s)", i, err, q.SQL)
		}
		for _, w := range []int{1, workers} {
			rows, stats, err := router.Exec(ctx, q.SQL, backend.ExecOptions{Lo: q.Lo, Hi: q.Hi, Workers: w})
			if err != nil {
				return st, fmt.Errorf("query %d sharded (%d shards, workers=%d) failed: %v (sql: %s)", i, shards, w, err, q.SQL)
			}
			if w != 1 {
				st.countUnion(q, stats)
			}
			switch {
			case w == 1:
				if stats.Vectorized {
					st.OneWorker++
				}
			case stats.Vectorized:
				st.Vectorized++
				st.Kernels += stats.SelectionKernels
				st.Residuals += stats.ResidualPredicates
			default:
				st.Fallback++
			}
			// equalResults checks columns, every value bit, and the
			// RowsScanned/Groups counters — the stats both executors must
			// agree on; how each one ran (workers, kernels, fan-out) differs
			// by design and is not compared.
			sharded := &sqldb.Result{Columns: rows.Columns, Rows: rows.Rows, Stats: stats}
			if err := equalResults(ref, sharded); err != nil {
				return st, fmt.Errorf("query %d diverged (shards=%d, workers=%d, range [%d,%d)): %v\nsql: %s\nchild sql: %s",
					i, shards, w, q.Lo, q.Hi, err, q.SQL, childSQLOf(q.SQL, h))
			}
		}
	}
	return st, nil
}

// childSQLOf renders the partial statement the router would send each
// shard, for failure diagnostics.
func childSQLOf(sql string, h *Harness) string {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return "<unparseable>"
	}
	t, ok := h.DB.Table(stmt.Table)
	if !ok {
		return "<no table>"
	}
	sp, err := sqldb.NewShardPlan(stmt, t.Schema())
	if err != nil {
		return "<no shard plan: " + err.Error() + ">"
	}
	return sp.ChildSQL()
}
