package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	if !c.Put("a", 1, 100, 0) {
		t.Fatal("small entry rejected")
	}
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New(1 << 20)
	c.Put("a", 1, 100, 0)
	c.Put("a", 2, 300, 0)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 300 {
		t.Fatalf("after replace: %+v", st)
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("replaced value = %v, want 2", v)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1000)
	c.maxEntry = 1000 // isolate eviction from the per-entry cap
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 100, 0)
	}
	// Touch k0 so k1 is the LRU victim.
	c.Get("k0")
	c.Put("new", 99, 100, 0)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU victim k1 survived")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recently used k0 evicted")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Bytes > 1000 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
}

func TestAdmissionPerEntryCap(t *testing.T) {
	c := New(1000) // maxEntry = 250
	if c.Put("big", 1, 500, time.Second) {
		t.Fatal("oversized entry admitted")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdmissionCostFloor(t *testing.T) {
	c := New(64 << 20)
	// 1MB that took 1µs to compute: cheap bulk, rejected.
	if c.Put("cheap", 1, 1<<20, time.Microsecond) {
		t.Fatal("cheap bulky entry admitted")
	}
	// Same size but expensive: admitted.
	if !c.Put("dear", 1, 1<<20, 50*time.Millisecond) {
		t.Fatal("expensive bulky entry rejected")
	}
	// Small entries are always admitted regardless of cost.
	if !c.Put("small", 1, 100, time.Nanosecond) {
		t.Fatal("small entry rejected")
	}
	// Unknown (zero) cost is admitted on size alone.
	if !c.Put("unknown", 1, 1<<20, 0) {
		t.Fatal("unknown-cost entry rejected")
	}
}

func TestDoCachesAndRetriesErrors(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	sz := func(any) int64 { return 10 }
	boom := errors.New("boom")

	_, _, err := c.Do(context.Background(), "k", sz, func(context.Context) (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Errors are not cached: the next Do computes again.
	v, out, err := c.Do(context.Background(), "k", sz, func(context.Context) (any, error) { calls++; return 7, nil })
	if err != nil || v.(int) != 7 || out != Computed {
		t.Fatalf("Do = %v, %v, %v", v, out, err)
	}
	// Now cached.
	v, out, err = c.Do(context.Background(), "k", sz, func(context.Context) (any, error) { calls++; return 8, nil })
	if err != nil || v.(int) != 7 || out != Hit {
		t.Fatalf("Do after fill = %v, %v, %v", v, out, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	values := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func(any) int64 { return 8 }, func(context.Context) (any, error) {
				computes.Add(1)
				close(started)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			values[i], outcomes[i] = v, out
		}(i)
	}
	<-started
	// Every other goroutine is now either blocked in the flight or about
	// to join it; give them a moment, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	var computed, sharedOrHit int
	for i := range outcomes {
		if values[i].(int) != 42 {
			t.Fatalf("goroutine %d got %v", i, values[i])
		}
		if outcomes[i] == Computed {
			computed++
		} else {
			sharedOrHit++
		}
	}
	if computed != 1 || sharedOrHit != n-1 {
		t.Fatalf("outcomes: %d computed, %d shared/hit; want 1, %d", computed, sharedOrHit, n-1)
	}
	// Followers are reclassified from misses to shared: one actual
	// computation → one miss.
	if st := c.Stats(); st.Misses != 1 || st.Shared != n-1 {
		t.Fatalf("stats after collapse: %+v, want 1 miss and %d shared", st, n-1)
	}
}

func TestDoFollowerRetriesOnLeaderCancellation(t *testing.T) {
	c := New(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	sz := func(any) int64 { return 8 }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Leader: its context is cancelled mid-flight, so its compute
		// fails with context.Canceled.
		_, _, err := c.Do(context.Background(), "k", sz, func(context.Context) (any, error) {
			close(leaderStarted)
			<-release
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()
	<-leaderStarted

	var followerVal any
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Follower joins the in-flight computation. The leader's
		// cancellation must not leak to it: it retries with its own
		// (healthy) compute function.
		followerVal, _, followerErr = c.Do(context.Background(), "k", sz, func(context.Context) (any, error) { return 7, nil })
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	cancel()
	close(release)
	wg.Wait()

	if followerErr != nil {
		t.Fatalf("follower inherited leader's cancellation: %v", followerErr)
	}
	if followerVal.(int) != 7 {
		t.Fatalf("follower value = %v, want 7 (own retry)", followerVal)
	}
}

func TestDoFollowerHonorsOwnCancellation(t *testing.T) {
	c := New(1 << 20)
	sz := func(any) int64 { return 8 }
	leaderStarted := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Leader: blocks until released, then succeeds.
		v, _, err := c.Do(context.Background(), "k", sz, func(context.Context) (any, error) {
			close(leaderStarted)
			<-release
			return 5, nil
		})
		if err != nil || v.(int) != 5 {
			t.Errorf("leader = %v, %v", v, err)
		}
	}()
	<-leaderStarted

	// Follower with a short deadline: it must stop waiting on the
	// in-flight leader when its own context expires, long before the
	// leader finishes.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Do(ctx, "k", sz, func(context.Context) (any, error) { return 6, nil })
	waited := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	if waited > time.Second {
		t.Fatalf("follower waited %v past its deadline", waited)
	}
	close(release)
	wg.Wait()
}

func TestDoSurvivesPanickingCompute(t *testing.T) {
	c := New(1 << 20)
	sz := func(any) int64 { return 8 }

	// A panicking leader must propagate the panic...
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic swallowed")
			}
		}()
		_, _, _ = c.Do(context.Background(), "k", sz, func(context.Context) (any, error) { panic("boom") })
	}()
	// ...and must not wedge the key: the next caller computes normally.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(context.Background(), "k", sz, func(context.Context) (any, error) { return 9, nil })
		if err != nil || v.(int) != 9 {
			t.Errorf("Do after panic = %v, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("key wedged after leader panic")
	}
}

func TestVersionedKeysIsolate(t *testing.T) {
	c := New(1 << 20)
	k1 := RequestKey("t", "1.0", "x = 1", "5")
	k2 := RequestKey("t", "2.0", "x = 1", "5")
	c.Put(k1, "old", 10, 0)
	if _, ok := c.Get(k2); ok {
		t.Fatal("new version observed old entry")
	}
}

// TestKeyNamespacesDisjoint feeds every key constructor the same
// components: the namespace prefix alone must keep them apart, and
// within a namespace any one differing component must change the key.
func TestKeyNamespacesDisjoint(t *testing.T) {
	keys := map[string]string{
		"r": RequestKey("t", "1.0", "x", "0", "0"),
		"s": StaleKey("t", "1.0", "x", "0", "0"),
		"t": StatsKey("t", "1.0", false),
	}
	seen := map[string]string{}
	for ns, k := range keys {
		if k[:1] != ns {
			t.Errorf("%s key has prefix %q", ns, k[:1])
		}
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s keys collide", ns, other)
		}
		seen[k] = ns
	}
	for name, other := range map[string]string{
		"s scope": StaleKey("t", "other", "x", "0", "0"),
		"s parts": StaleKey("t", "1.0", "x", "0", "1"),
		"s table": StaleKey("u", "1.0", "x", "0", "0"),
	} {
		if other == keys["s"] {
			t.Errorf("%s does not reach the key", name)
		}
	}
	for name, other := range map[string]string{
		"t table":         StatsKey("u", "1.0", false),
		"t version":       StatsKey("t", "1.1", false),
		"t allow_partial": StatsKey("t", "1.0", true),
	} {
		if other == keys["t"] {
			t.Errorf("%s does not reach the key", name)
		}
	}
	if RequestKey("T", "1.0", "x", "0", "0") != keys["r"] || StaleKey("T", "1.0", "x", "0", "0") != keys["s"] ||
		StatsKey("T", "1.0", false) != keys["t"] {
		t.Error("table names must key case-insensitively")
	}
}

func TestClear(t *testing.T) {
	c := New(1 << 20)
	c.Put("a", 1, 10, 0)
	c.Put("b", 2, 10, 0)
	c.Clear()
	if c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("after clear: len=%d stats=%+v", c.Len(), c.Stats())
	}
	// Counters survive a clear.
	if c.Stats().Misses == 0 && c.Stats().Hits == 0 {
		// Get to produce a miss, proving the cache still works.
		if _, ok := c.Get("a"); ok {
			t.Fatal("cleared entry still present")
		}
	}
}
