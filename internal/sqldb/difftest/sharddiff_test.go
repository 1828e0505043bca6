package difftest

import "testing"

// TestShardedDifferential sweeps the generated query grammar against
// shard routers of 1, 2, 3 and 5 children over 3 seeds, asserting
// bit-exact agreement with the unsharded interpreter at one and at four
// scan workers per child. Odd shard counts against the fixed row count
// make child block sizes uneven on purpose.
func TestShardedDifferential(t *testing.T) {
	const queriesPerSeed, workers = 250, 4
	seeds := []int64{11, 12, 13}
	shardSweep := []int{1, 2, 3, 5}
	for _, seed := range seeds {
		for _, shards := range shardSweep {
			h, err := New(seed, 1500)
			if err != nil {
				t.Fatal(err)
			}
			st, err := h.RunSharded(queriesPerSeed, shards, workers)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if st.Queries != queriesPerSeed {
				t.Fatalf("seed %d shards %d: ran %d queries, want %d", seed, shards, st.Queries, queriesPerSeed)
			}
			if st.OneWorker == 0 {
				t.Errorf("seed %d shards %d: no query vectorized at one worker per child", seed, shards)
			}
			if st.Shared == 0 {
				t.Errorf("seed %d shards %d: none of %d UNION ALL statements ran one shared scan per child", seed, shards, st.Unions)
			}
			t.Logf("seed %d shards %d: %d queries, %d vectorized (%d at workers=1), %d fallback; %d/%d unions shared",
				seed, shards, st.Queries, st.Vectorized, st.OneWorker, st.Fallback, st.Shared, st.Unions)
		}
	}
}

// TestShardedDifferentialTinyTables covers the shard-specific degenerate
// shapes: tables smaller than the shard count (so children are empty)
// and single-row tables. (The query generator needs at least one row to
// draw sub-ranges from, so the empty-table edge is covered by the
// explicit zero-row assertions in the shardbe unit tests instead.)
func TestShardedDifferentialTinyTables(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 7} {
		h, err := New(99, rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.RunSharded(120, 5, 2); err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
	}
}
