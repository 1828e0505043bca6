package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerOptions{
		FailureThreshold: threshold,
		Cooldown:         cooldown,
		Now:              clk.now,
	})
	return b, clk
}

func TestBreakerFullCycle(t *testing.T) {
	b, clk := newTestBreaker(3, time.Second)

	if b.Snapshot().State != Closed {
		t.Fatalf("new breaker state = %v, want Closed", b.Snapshot().State)
	}
	// Two failures stay below the threshold.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.RecordFailure()
	}
	if b.Snapshot().State != Closed {
		t.Fatalf("state after 2 failures = %v, want Closed", b.Snapshot().State)
	}
	// A success resets the consecutive count.
	b.Allow()
	b.RecordSuccess()
	for i := 0; i < 2; i++ {
		b.Allow()
		b.RecordFailure()
	}
	if b.Snapshot().State != Closed {
		t.Fatalf("consecutive count not reset by success: state = %v", b.Snapshot().State)
	}
	// Third consecutive failure trips it.
	b.Allow()
	b.RecordFailure()
	if b.Snapshot().State != Open {
		t.Fatalf("state after threshold failures = %v, want Open", b.Snapshot().State)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	// Cooldown elapses: exactly one probe is admitted.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.Snapshot().State != HalfOpen {
		t.Fatalf("state after probe admit = %v, want HalfOpen", b.Snapshot().State)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: re-open, cooldown restarts.
	b.RecordFailure()
	if b.Snapshot().State != Open {
		t.Fatalf("state after failed probe = %v, want Open", b.Snapshot().State)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request immediately")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	// Probe succeeds: close.
	b.RecordSuccess()
	if b.Snapshot().State != Closed {
		t.Fatalf("state after successful probe = %v, want Closed", b.Snapshot().State)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused a request")
	}
	b.RecordSuccess()

	// The transition counters must be exact.
	want := Transitions{
		ClosedToOpen:     1,
		OpenToHalfOpen:   2,
		HalfOpenToClosed: 1,
		HalfOpenToOpen:   1,
	}
	if got := b.Snapshot().Transitions; got != want {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
}

func TestBreakerReadyHasNoSideEffects(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.RecordFailure()
	if b.Ready() {
		t.Fatal("Ready true while open inside cooldown")
	}
	clk.advance(time.Second)
	// Ready must not consume the probe slot however often it is asked.
	for i := 0; i < 5; i++ {
		if !b.Ready() {
			t.Fatalf("Ready false after cooldown (call %d)", i)
		}
	}
	if b.Snapshot().State != Open {
		t.Fatalf("Ready transitioned state to %v", b.Snapshot().State)
	}
	if !b.Allow() {
		t.Fatal("Allow refused after cooldown despite Ready reporting admissible")
	}
	if b.Ready() {
		t.Fatal("Ready true while the half-open probe is in flight")
	}
	if b.Snapshot().Refusals != 0 {
		t.Fatalf("Ready counted refusals: %d", b.Snapshot().Refusals)
	}
}

// TestBreakerHalfOpenSingleProbe hammers a half-open breaker from many
// goroutines: exactly one must be admitted per half-open episode. Run
// with -race in CI.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	for round := 0; round < 20; round++ {
		b.Allow()
		b.RecordFailure() // trip
		clk.advance(time.Second)

		var admitted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d goroutines admitted in half-open, want exactly 1", round, n)
		}
		b.RecordSuccess() // close again for the next round
	}
	tr := b.Snapshot().Transitions
	want := Transitions{ClosedToOpen: 20, OpenToHalfOpen: 20, HalfOpenToClosed: 20}
	if tr != want {
		t.Fatalf("transitions = %+v, want %+v", tr, want)
	}
}

func TestBreakerStragglersDoNotCorruptState(t *testing.T) {
	b, clk := newTestBreaker(2, time.Second)
	b.Allow()
	b.Allow()
	b.RecordFailure()
	b.RecordFailure() // trips
	if b.Snapshot().State != Open {
		t.Fatalf("state = %v, want Open", b.Snapshot().State)
	}
	// Stragglers from before the trip report in while open: no effect.
	b.RecordSuccess()
	b.RecordFailure()
	if b.Snapshot().State != Open {
		t.Fatalf("straggler outcome changed open state to %v", b.Snapshot().State)
	}
	if got := b.Snapshot().Transitions.ClosedToOpen; got != 1 {
		t.Fatalf("ClosedToOpen = %d, want 1", got)
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after stragglers")
	}
	b.RecordSuccess()
	if b.Snapshot().State != Closed {
		t.Fatalf("state = %v, want Closed", b.Snapshot().State)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Closed: "closed", Open: "open", HalfOpen: "half_open", State(9): "unknown"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
