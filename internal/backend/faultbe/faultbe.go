// Package faultbe wraps a backend.Backend with injectable faults —
// added latency and scripted errors — for tests and benchmarks that
// need a misbehaving child on demand: the shard router's hedging tests
// make one child a straggler, the netbe robustness tests script
// outages, and the shard benchmark's hedged-vs-unhedged curve injects a
// deterministic straggler per fan-out.
//
// The wrapper is deliberately boring: it never changes results, only
// when (latency) and whether (errors) they arrive. Latency honors ctx
// cancellation — a hedged loser or a timed-out call aborts its sleep
// immediately, which is exactly the behavior cancellation tests need to
// observe (the Aborted counter counts those).
package faultbe

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/backend"
)

// Fault is a fault-injecting backend wrapper. Safe for concurrent use.
// Everything but Exec — Name (so version tokens and cache keys are
// indistinguishable from the unwrapped store), Capabilities and the
// introspection calls — is the embedded inner backend's own.
type Fault struct {
	backend.Backend

	mu       sync.Mutex
	delay    time.Duration
	failures int
	failErr  error

	// Flap mode: fail flapFail calls, let flapOK through, repeat.
	flapFail, flapOK int
	flapErr          error
	flapPos          int

	// Down mode: every Exec fails with downErr until cleared.
	downErr error

	execs   atomic.Int64
	failed  atomic.Int64
	aborted atomic.Int64
}

// Wrap decorates inner with fault injection (no faults configured yet).
func Wrap(inner backend.Backend) *Fault {
	return &Fault{Backend: inner}
}

// SetExecDelay makes every subsequent Exec sleep d before delegating
// (0 removes the delay). The sleep aborts on ctx cancellation.
func (f *Fault) SetExecDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// FailNextExecs scripts the next n Exec calls to fail with err without
// reaching the inner backend.
func (f *Fault) FailNextExecs(n int, err error) {
	f.mu.Lock()
	f.failures, f.failErr = n, err
	f.mu.Unlock()
}

// SetFlap scripts a repeating fail/recover cycle: the next failN Exec
// calls fail with err, the okN after that delegate normally, then the
// cycle restarts. failN <= 0 clears flap mode. Breaker tests use this
// to drive deterministic open→half-open→open→...→closed sequences.
func (f *Fault) SetFlap(failN, okN int, err error) {
	f.mu.Lock()
	f.flapFail, f.flapOK, f.flapErr, f.flapPos = failN, okN, err, 0
	f.mu.Unlock()
}

// SetDown makes every subsequent Exec fail with err until SetDown(nil)
// restores the child. Introspection still reaches the child — this
// models a store whose query path is dead while cheap introspection
// (often cached or served by a proxy) survives, the harder degraded
// case for the shard router.
func (f *Fault) SetDown(err error) {
	f.mu.Lock()
	f.downErr = err
	f.mu.Unlock()
}

// Execs counts Exec calls that reached this wrapper (failed, aborted
// and delegated alike).
func (f *Fault) Execs() int64 { return f.execs.Load() }

// FailedExecs counts Exec calls that failed with an injected error
// (scripted, flap, or down), letting breaker tests assert exactly how
// many calls the child actually rejected.
func (f *Fault) FailedExecs() int64 { return f.failed.Load() }

// Aborted counts Exec calls whose injected delay was cut short by ctx
// cancellation — hedging's cancelled losers land here.
func (f *Fault) Aborted() int64 { return f.aborted.Load() }

// Exec applies the scripted faults, then delegates.
func (f *Fault) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	f.execs.Add(1)
	f.mu.Lock()
	delay := f.delay
	var err error
	switch {
	case f.downErr != nil:
		err = f.downErr
	case f.failures > 0:
		f.failures--
		err = f.failErr
	case f.flapFail > 0:
		cycle := f.flapFail + f.flapOK
		if f.flapPos < f.flapFail {
			err = f.flapErr
		}
		f.flapPos++
		if f.flapPos >= cycle {
			f.flapPos = 0
		}
	}
	f.mu.Unlock()
	if err != nil {
		f.failed.Add(1)
		return nil, backend.ExecStats{}, err
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			f.aborted.Add(1)
			return nil, backend.ExecStats{}, ctx.Err()
		case <-t.C:
		}
	}
	return f.Backend.Exec(ctx, query, opts)
}
