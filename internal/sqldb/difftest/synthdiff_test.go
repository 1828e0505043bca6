package difftest

import (
	"runtime"
	"testing"

	"seedb/internal/sqldb"
)

// TestSynthDifferential feeds synthetic-spec-generated data (Zipf,
// weighted, hierarchy, correlated measures, NULLs) through the full
// query grammar and requires bit-exact agreement between the row
// interpreter and the column store at one worker and at several, across
// three seeds.
func TestSynthDifferential(t *testing.T) {
	const queriesPerSeed = 300
	seeds := []int64{11, 12, 13}
	workerSweep := []int{2, 4, 5}
	if gmp := runtime.GOMAXPROCS(0); gmp > 5 {
		workerSweep = append(workerSweep, gmp)
	}
	for i, seed := range seeds {
		workers := workerSweep[i%len(workerSweep)]
		h, err := NewSynth(seed, 2500)
		if err != nil {
			t.Fatal(err)
		}
		st, err := h.Run(queriesPerSeed, workers)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The synthetic data must drive both executors, like the
		// handwritten table does.
		if st.Vectorized < queriesPerSeed/4 || st.OneWorker < queriesPerSeed/4 {
			t.Errorf("seed %d: only %d (workers=%d) and %d (workers=1) of %d queries vectorized",
				seed, st.Vectorized, workers, st.OneWorker, st.Queries)
		}
		if st.Fallback < queriesPerSeed/20 {
			t.Errorf("seed %d: only %d/%d queries hit the interpreter fallback", seed, st.Fallback, st.Queries)
		}
		if st.Kernels == 0 || st.Residuals == 0 {
			t.Errorf("seed %d: predicate paths under-exercised (%d kernels, %d residuals)",
				seed, st.Kernels, st.Residuals)
		}
		t.Logf("seed %d workers %d: %d queries, %d vectorized (%d at workers=1; %d kernels, %d residuals), %d fallback",
			seed, workers, st.Queries, st.Vectorized, st.OneWorker, st.Kernels, st.Residuals, st.Fallback)
	}
}

// TestSynthDifferentialSharded runs the same synthetic table on the
// unsharded interpreter vs through shard routers with 2 and 3 embedded
// children at one and three scan workers, three seeds each, requiring
// bit-exact results (RowsScanned and Groups included).
func TestSynthDifferentialSharded(t *testing.T) {
	const queriesPerCase = 150
	for _, shards := range []int{2, 3} {
		for _, seed := range []int64{11, 12, 13} {
			h, err := NewSynth(seed, 2000)
			if err != nil {
				t.Fatal(err)
			}
			st, err := h.RunSharded(queriesPerCase, shards, 3)
			if err != nil {
				t.Fatalf("shards=%d seed %d: %v", shards, seed, err)
			}
			if st.OneWorker == 0 {
				t.Errorf("shards=%d seed %d: no query vectorized at one worker per child", shards, seed)
			}
			t.Logf("shards %d seed %d: %d queries, %d vectorized (%d at workers=1), %d fallback",
				shards, seed, st.Queries, st.Vectorized, st.OneWorker, st.Fallback)
		}
	}
}

// TestSynthHarnessSelectivity guards the value-name collision the
// harness relies on: generator predicates like d2 = 'd2_17' must select
// actual rows from the synthetic table, or the differential sweep would
// quietly degrade to empty-result comparisons.
func TestSynthHarnessSelectivity(t *testing.T) {
	h, err := NewSynth(11, 2500)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []string{
		"SELECT COUNT(*) FROM t WHERE d0 = 'd0_01'",
		"SELECT COUNT(*) FROM t WHERE d1 = 'd1_03'",
		"SELECT COUNT(*) FROM t WHERE d2 = 'd2_17'",
		"SELECT COUNT(*) FROM t WHERE s0 >= 's15'",
		"SELECT COUNT(*) FROM t WHERE m0 IS NULL",
		"SELECT COUNT(*) FROM t WHERE b0 IS NULL",
	} {
		res, err := h.DB.QueryOpts(probe, sqldb.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", probe, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I == 0 {
			t.Errorf("%s selected no rows; predicate pool no longer overlaps synthetic values", probe)
		}
	}
}
