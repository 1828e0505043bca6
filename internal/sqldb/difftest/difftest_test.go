package difftest

import (
	"runtime"
	"testing"
)

// TestDifferential runs the generator under several seeds, checking every
// query for exact agreement between the row interpreter and the column
// store's executor (vectorized, or its fallback) at one worker and at
// several. The worker counts exceed GOMAXPROCS on small machines on
// purpose: chunked execution and merging must be correct regardless of
// physical parallelism.
func TestDifferential(t *testing.T) {
	const queriesPerSeed = 600
	seeds := []int64{1, 2, 3}
	workerSweep := []int{2, 4, 5}
	if gmp := runtime.GOMAXPROCS(0); gmp > 5 {
		workerSweep = append(workerSweep, gmp)
	}
	for i, seed := range seeds {
		workers := workerSweep[i%len(workerSweep)]
		h, err := New(seed, 2500)
		if err != nil {
			t.Fatal(err)
		}
		st, err := h.Run(queriesPerSeed, workers)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.Queries != queriesPerSeed {
			t.Fatalf("seed %d: ran %d queries, want %d", seed, st.Queries, queriesPerSeed)
		}
		// The generator must exercise both executors heavily; a collapse
		// to one side would quietly gut the differential coverage.
		if st.Vectorized < queriesPerSeed/4 || st.OneWorker < queriesPerSeed/4 {
			t.Errorf("seed %d: only %d (workers=%d) and %d (workers=1) of %d queries vectorized",
				seed, st.Vectorized, workers, st.OneWorker, st.Queries)
		}
		if st.Fallback < queriesPerSeed/20 {
			t.Errorf("seed %d: only %d/%d queries hit the interpreter fallback", seed, st.Fallback, st.Queries)
		}
		// Predicate compilation must actually engage: vectorized runs
		// should bind selection kernels, and the hybrid residual path
		// (closure conjuncts inside kernel-filtered scans) must occur too.
		if st.Kernels == 0 {
			t.Errorf("seed %d: no selection kernels bound across %d vectorized queries", seed, st.Vectorized)
		}
		if st.Residuals == 0 {
			t.Errorf("seed %d: no residual predicate conjuncts exercised", seed)
		}
		// Int group keys must take both codings: range (k0, m2, narrow
		// stretches of e0) and runtime dictionary (w0, wide stretches).
		if st.IntRange == 0 || st.IntDict == 0 {
			t.Errorf("seed %d: int group keys coded %d× by range, %d× by dictionary; want both", seed, st.IntRange, st.IntDict)
		}
		// UNION ALL statements must run as one shared scan, and not all
		// of them: a branch outside the fast path runs them one by one.
		if st.Shared == 0 || st.Shared == st.Unions {
			t.Errorf("seed %d: %d of %d UNION ALL statements ran one shared scan; want some, not all", seed, st.Shared, st.Unions)
		}
		t.Logf("seed %d workers %d: %d queries, %d vectorized (%d at workers=1; %d kernels, %d residuals; int keys %d range, %d dict), %d fallback; %d/%d unions shared",
			seed, workers, st.Queries, st.Vectorized, st.OneWorker, st.Kernels, st.Residuals, st.IntRange, st.IntDict, st.Fallback, st.Shared, st.Unions)
	}
}

// TestDifferentialBlockEdges runs the generator on a table large enough
// that every worker chunk spans at least two full scan blocks (sqldb's
// selBlockRows is 1024) plus a ragged tail, with the generator's random
// sub-ranges putting chunk and block boundaries at arbitrary rows.
func TestDifferentialBlockEdges(t *testing.T) {
	const rows, queries = 9000, 120
	h, err := New(5, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		if rows/workers < 2*1024 {
			t.Fatalf("workers=%d: chunks of %d rows hold fewer than two full blocks", workers, rows/workers)
		}
		st, err := h.Run(queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.IntRange == 0 || st.IntDict == 0 || st.Residuals == 0 || st.OneWorker == 0 {
			t.Errorf("workers=%d: under-exercised: int keys %d range / %d dict, %d residuals, %d vectorized at workers=1",
				workers, st.IntRange, st.IntDict, st.Residuals, st.OneWorker)
		}
	}
}

// TestIntGroupKeyCodingEdges groups by e0 over each of the row ranges
// that put it at an edge of the int group-key coding, and checks both
// the coding the executor chose at one and at three workers and — as
// everywhere — bit-exact agreement with the interpreter.
func TestIntGroupKeyCodingEdges(t *testing.T) {
	h, err := New(9, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Per edge range: all NULL, one value, span fits, span + 1. The flag
	// of the second query doubles the id space, so there the span that
	// just fits on its own no longer does.
	const flag = "CASE WHEN m1 > 0 THEN 1 ELSE 0 END"
	cases := []struct {
		sql  string
		want [4]string
	}{
		{"SELECT e0, COUNT(*), SUM(m1), MIN(m2) FROM t GROUP BY e0",
			[4]string{"range", "range", "range", "numdict"}},
		{"SELECT e0, " + flag + ", COUNT(m0) FROM t WHERE ABS(m2) < 80 GROUP BY e0, " + flag,
			[4]string{"range", "range", "numdict", "numdict"}},
	}
	if len(h.edges) != 4 {
		t.Fatalf("harness has %d edge ranges, want 4", len(h.edges))
	}
	for i, e := range h.edges {
		for _, tc := range cases {
			q := Query{SQL: tc.sql, Lo: e[0], Hi: e[1], Groups: []string{"e0"}}
			ref, err := h.reference(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				par, codings, err := h.exec(q, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(codings) == 0 || codings[0] != tc.want[i] {
					t.Errorf("rows [%d,%d) workers=%d: e0 coded %v, want %s (sql: %s)", e[0], e[1], workers, codings, tc.want[i], tc.sql)
				}
				if err := equalResults(ref, par); err != nil {
					t.Errorf("rows [%d,%d) workers=%d: %v (sql: %s)", e[0], e[1], workers, err, tc.sql)
				}
			}
		}
	}
	// The two coding ranges side by side exceed the span: dictionary.
	q := Query{SQL: "SELECT e0, COUNT(*) FROM t GROUP BY e0", Groups: []string{"e0"}}
	if _, codings, err := h.exec(q, 2); err != nil || len(codings) == 0 || codings[0] != "numdict" {
		t.Errorf("whole table: e0 coded %v (err %v), want numdict", codings, err)
	}
}

// TestDifferentialTinyTables covers degenerate table sizes where chunk
// boundaries collapse (fewer rows than workers, empty table).
func TestDifferentialTinyTables(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 7} {
		h, err := New(77, rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(150, 4); err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
	}
}
