// Package cache implements the shared result-cache subsystem that lets
// SeeDB reuse work *across* requests, sessions and users — the
// complement of the paper's sharing optimizations, which only
// deduplicate work within a single Recommend invocation.
//
// It is the only place the system retains a computed result:
//
//   - A byte-budgeted LRU memoization cache (Cache) with cost-aware
//     admission: entries are keyed by opaque strings that embed a dataset
//     version token, so a version bump makes every stale entry
//     unreachable (it then ages out under LRU pressure) without any
//     synchronous invalidation scan.
//   - Singleflight request collapsing (Do): N concurrent computations of
//     the same key execute the underlying work exactly once and share
//     the result.
//   - Typed key constructors (keys.go), one per namespace: whole-request
//     results, table statistics at a version (the engine's only memo of
//     them: backends compute statistics and remember none) and the
//     version-less stale-on-outage aliases.
//
// Values stored in the cache are shared between goroutines and MUST be
// treated as immutable by all readers; callers that need to mutate a
// cached value must deep-copy it first.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"seedb/internal/telemetry"
)

// DefaultBudgetBytes is the cache byte budget when none is configured.
const DefaultBudgetBytes = 64 << 20

// Outcome reports how a Do call obtained its value.
type Outcome int

const (
	// Computed: this caller executed the compute function itself.
	Computed Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Shared: a concurrent caller was already computing the same key and
	// the result was shared via singleflight.
	Shared
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "unknown"
	}
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	// Hits and Misses count Get/Do lookups.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Shared counts singleflight followers: lookups that neither hit the
	// cache nor executed work, because a concurrent identical computation
	// was already in flight.
	Shared uint64 `json:"shared"`
	// Evictions counts entries removed under LRU byte pressure.
	Evictions uint64 `json:"evictions"`
	// Rejected counts entries refused by the admission policy.
	Rejected uint64 `json:"rejected"`
	// Entries and Bytes describe current occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// BudgetBytes is the configured byte budget.
	BudgetBytes int64 `json:"budget_bytes"`
}

// Cache is a byte-budgeted LRU memoization cache with singleflight
// request collapsing. It is safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	// maxEntry caps any single entry so one huge result cannot flush the
	// whole cache.
	maxEntry int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, shared uint64
	evictions, rejected  uint64

	flights flightGroup
}

// entry is one cached key/value pair.
type entry struct {
	key   string
	val   any
	bytes int64
}

// New creates a cache with the given byte budget (<= 0 selects
// DefaultBudgetBytes).
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Cache{
		budget:   budgetBytes,
		maxEntry: budgetBytes / 4,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts (or replaces) key with a value of the given estimated size,
// recording how long the value took to compute. It reports whether the
// entry was admitted.
//
// Admission is cost-aware: an entry is admitted only when it fits the
// per-entry cap (budget/4) and, for bulky entries, when the recompute
// cost justifies the space — results that are large but nearly free to
// recompute are not worth evicting hotter entries for. The cost floor is
// linear in size: 100µs per megabyte, with no floor below 64KiB (small
// entries are always worth keeping). A zero cost is treated as unknown
// and admitted on size alone.
func (c *Cache) Put(key string, val any, size int64, cost time.Duration) bool {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxEntry || !c.admissible(size, cost) {
		c.rejected++
		return false
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.bytes
		e.val, e.bytes = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, bytes: size})
		c.bytes += size
	}
	for c.bytes > c.budget {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		if e.key == key {
			// Never evict the entry just inserted.
			break
		}
		c.removeLocked(el)
		c.evictions++
	}
	return true
}

// admissible applies the cost floor for bulky entries.
func (c *Cache) admissible(size int64, cost time.Duration) bool {
	const (
		smallEntry = 64 << 10
		costPerMB  = 100 * time.Microsecond
	)
	if size <= smallEntry || cost <= 0 {
		return true
	}
	floor := time.Duration(size) * costPerMB / (1 << 20)
	return cost >= floor
}

// Do returns the value for key, computing it at most once across
// concurrent callers: a cached value is returned immediately (Hit);
// otherwise one caller runs compute and admits the result (Computed)
// while concurrent duplicates block and share it (Shared).
//
// size estimates the byte footprint of a computed value for admission
// and budgeting; a negative size marks the value do-not-admit (it is
// returned to this flight's callers but never stored). Errors are not
// cached; every Do after a failure retries the computation. ctx governs only this caller's waiting: a follower
// whose own context dies stops waiting and returns ctx.Err(), while a
// follower that inherits the *leader's* context-cancellation error (the
// leader's client hung up, not the follower's) retries with its own
// compute function rather than failing an innocent caller. A nil ctx is
// treated as context.Background().
//
// compute receives a context derived from ctx that carries the lookup's
// "cache.do" telemetry span, so work performed under the cache attaches
// its own spans beneath the lookup rather than floating beside it. When
// ctx carries no trace the derived context is ctx itself.
func (c *Cache) Do(ctx context.Context, key string, size func(v any) int64, compute func(ctx context.Context) (any, error)) (any, Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, sp := telemetry.StartSpan(ctx, "cache.do")
	defer sp.End()
	if v, ok := c.Get(key); ok {
		sp.SetAttr("outcome", Hit.String())
		return v, Hit, nil
	}
	v, sharedFlight, err := c.flights.do(ctx, key, func() (any, error) {
		start := time.Now()
		v, err := compute(sctx)
		if err != nil {
			return nil, err
		}
		if sz := size(v); sz < 0 {
			// A negative size is the compute's do-not-admit signal: the
			// value is valid for this caller (and any followers sharing
			// the flight) but must not persist — degraded shard results
			// use this, since partial coverage would poison every later
			// reader.
			sp.SetAttr("filled", "uncacheable")
		} else if !c.Put(key, v, sz, time.Since(start)) {
			sp.SetAttr("filled", "rejected")
		}
		return v, nil
	})
	if sharedFlight {
		// The lookup was collapsed, not missed: reclassify the miss the
		// initial Get recorded so operators see one miss per actual
		// computation.
		c.mu.Lock()
		c.misses--
		c.shared++
		c.mu.Unlock()
	}
	if err != nil {
		if sharedFlight && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The leader's context died, not ours. Retry: we either find
			// the value, become the new leader under our own context, or
			// join a healthier flight. Recursion terminates because a
			// caller whose own computation is cancelled gets a
			// non-shared error (and a cancelled waiter fails the
			// ctx.Err() == nil guard).
			sp.SetAttr("outcome", "retry")
			sp.End()
			return c.Do(ctx, key, size, compute)
		}
		sp.SetAttr("outcome", "error")
		return nil, Computed, err
	}
	if sharedFlight {
		sp.SetAttr("outcome", Shared.String())
		return v, Shared, nil
	}
	sp.SetAttr("outcome", Computed.String())
	return v, Computed, nil
}

// Clear drops every entry (counters are preserved).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Shared:      c.shared,
		Evictions:   c.evictions,
		Rejected:    c.rejected,
		Entries:     len(c.items),
		Bytes:       c.bytes,
		BudgetBytes: c.budget,
	}
}

// removeLocked unlinks one element; the caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}
