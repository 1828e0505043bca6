// Package resilience holds the graceful-degradation primitives the
// server and shard router share: per-child circuit breakers that stop
// hammering a failing backend, and an admission gate that bounds
// in-flight work with a short timed wait queue.
//
// Both primitives are deliberately dependency-free and synchronous so
// they can sit on hot paths: a breaker decision is one mutex acquire,
// and the gate's fast path is a single channel send.
package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position in the closed→open→half-open
// cycle.
type State int

const (
	// Closed admits every request; failures are being counted.
	Closed State = iota
	// Open refuses every request until the cooldown elapses.
	Open
	// HalfOpen admits exactly one concurrent probe request; its
	// outcome decides between re-closing and re-opening.
	HalfOpen
)

// String names the state for metrics and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// BreakerOptions tunes one circuit breaker.
type BreakerOptions struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures. Defaults to 5.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe. Defaults to 1s.
	Cooldown time.Duration
	// Now injects a clock for tests. Defaults to time.Now.
	Now func() time.Time
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Transitions counts every state change the breaker has made. The
// counters are exact: each transition increments exactly one field.
type Transitions struct {
	ClosedToOpen     int64
	OpenToHalfOpen   int64
	HalfOpenToClosed int64
	HalfOpenToOpen   int64
}

// BreakerStats is a point-in-time snapshot for /metrics and /healthz.
type BreakerStats struct {
	State       State
	Successes   int64
	Failures    int64
	Refusals    int64
	Transitions Transitions
}

// Breaker is one circuit breaker. The zero value is not usable; build
// with NewBreaker. All methods are safe for concurrent use.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    State
	consec   int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	successes int64
	failures  int64
	refusals  int64
	trans     Transitions
}

// NewBreaker builds a breaker in the Closed state.
func NewBreaker(opts BreakerOptions) *Breaker {
	return &Breaker{opts: opts.withDefaults()}
}

// Allow reports whether a request may proceed, consuming the half-open
// probe slot when it does. Callers that are admitted MUST report the
// outcome via RecordSuccess or RecordFailure; an admitted half-open
// probe that never reports would wedge the breaker half-open.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.opts.Now().Sub(b.openedAt) < b.opts.Cooldown {
			b.refusals++
			return false
		}
		// Cooldown elapsed: this caller becomes the half-open probe.
		b.state = HalfOpen
		b.trans.OpenToHalfOpen++
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			b.refusals++
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Ready is Allow without side effects: it reports whether a request
// would currently be admitted, without consuming the probe slot or
// counting a refusal. Introspection paths (TableInfo, stats scans) use
// it to decide whether a child should be treated as down.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		return b.opts.Now().Sub(b.openedAt) >= b.opts.Cooldown
	case HalfOpen:
		return !b.probing
	}
	return false
}

// RecordSuccess reports a successful admitted request.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.successes++
	switch b.state {
	case Closed:
		b.consec = 0
	case HalfOpen:
		// The probe came back healthy: close with a clean failure count.
		b.state = Closed
		b.trans.HalfOpenToClosed++
		b.probing = false
		b.consec = 0
	case Open:
		// A straggler from before the trip; its success is stale news.
	}
}

// RecordFailure reports a failed admitted request.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch b.state {
	case Closed:
		b.consec++
		if b.consec >= b.opts.FailureThreshold {
			b.state = Open
			b.trans.ClosedToOpen++
			b.openedAt = b.opts.Now()
		}
	case HalfOpen:
		// The probe failed: re-open and restart the cooldown.
		b.state = Open
		b.trans.HalfOpenToOpen++
		b.probing = false
		b.openedAt = b.opts.Now()
	case Open:
		// Straggler failure; the breaker is already open.
	}
}

// RecordCancel reports that an admitted request ended with no health
// signal either way — typically the caller's own context was cancelled
// before the child could prove anything. It only releases a held
// half-open probe slot (the next caller becomes the probe); closed-state
// failure history is untouched.
func (b *Breaker) RecordCancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// Snapshot returns a consistent copy of the breaker's counters.
func (b *Breaker) Snapshot() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:       b.state,
		Successes:   b.successes,
		Failures:    b.failures,
		Refusals:    b.refusals,
		Transitions: b.trans,
	}
}
