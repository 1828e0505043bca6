// Straggler hedging for the shard router.
//
// Hedging bounds a fan-out's tail latency: the merge cannot start until
// the slowest shard answers, so one straggling child drags the whole
// query to its pace (ShardStragglerMax is exactly that critical path).
// When a child execution outlives the hedge delay — a percentile of the
// router's own recent child latencies, or a fixed operator-chosen
// duration — the router issues a speculative duplicate of the same
// partial, takes whichever answer arrives first, and cancels the loser.
// Exactly one result per partial ever reaches the merge, so hedged and
// unhedged executions are bit-identical; hedging spends duplicate work
// to buy tail latency, never correctness. Both attempts are ordinary
// Router.attempt calls: hedging only decides whether a second one races
// the first.
package shardbe

import (
	"context"
	"time"

	"seedb/internal/backend"
)

// HedgeOptions configures straggler hedging.
type HedgeOptions struct {
	// Enabled turns hedging on.
	Enabled bool
	// Delay is a fixed hedge delay. Zero selects the adaptive delay: the
	// 95th percentile of the router's own observed child latencies (a
	// partial slower than that is, by construction, a straggler), floored
	// at hedgeMinDelay.
	Delay time.Duration
}

// hedgeMinDelay floors the adaptive delay, and stands in for it
// entirely until enough latency history accumulates. It keeps a
// fast-and-tight latency distribution from hedging every call.
const hedgeMinDelay = time.Millisecond

// hedgeHistoryMin is how many child latencies the adaptive delay wants
// before trusting the percentile over hedgeMinDelay.
const hedgeHistoryMin = 8

// hedgeLoserGrace bounds how long a winning attempt waits for the
// cancelled loser to unwind. A cooperative child aborts its scan within
// microseconds of cancellation, so the loser's span is closed — marked
// status=cancelled — by the time Exec returns and a trace snapshot is
// taken. A child that ignores cancellation costs the hedge this grace
// period, never an unbounded stall; its span then ends whenever the
// goroutine finally dies.
const hedgeLoserGrace = 20 * time.Millisecond

// hedgeDelay computes the current hedge delay.
func (r *Router) hedgeDelay() time.Duration {
	if r.hedge.Delay > 0 {
		return r.hedge.Delay
	}
	snap := r.hedgeLat.Snapshot()
	if snap.Count < hedgeHistoryMin {
		return hedgeMinDelay
	}
	return max(time.Duration(snap.P95MS*float64(time.Millisecond)), hedgeMinDelay)
}

// execChild runs one partial. With hedging off that is a single
// attempt. With hedging on, the primary attempt runs under a timer armed
// with the hedge delay; on expiry a duplicate re-queries the same
// child, the first success wins and the other attempt is cancelled. The
// duplicate still beats a transient stall (a scheduling hiccup, one
// slow connection), though not a uniformly slow child. A failure is
// returned as-is when no other attempt is in flight — hedging is a
// tail-latency tool, not a retry policy (netbe owns retries, with its
// own budget).
func (r *Router) execChild(ctx context.Context, t childTask, sql string, opts backend.ExecOptions) childRun {
	if !r.hedge.Enabled {
		return r.attempt(ctx, t, sql, opts, false)
	}
	type result struct {
		run    childRun
		hedged bool
	}
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	// Buffered to both attempts, so a loser finishing after the winner
	// never blocks on a channel nobody reads. attempt contains a child
	// panic, so every launched attempt sends exactly one result.
	results := make(chan result, 2)
	launch := func(hedged bool) {
		go func() { results <- result{r.attempt(actx, t, sql, opts, hedged), hedged} }()
	}
	launch(false)

	timer := time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	outstanding := 1
	hedgedIssued := false
	var failure childRun
	for {
		select {
		case <-timer.C:
			// A duplicate against the straggler is pointless — and
			// actively harmful — when its breaker has opened since the
			// primary launched: hedging must never resurrect an open
			// circuit.
			if !r.childDown(t.child) {
				hedgedIssued = true
				outstanding++
				launch(true)
			}
		case a := <-results:
			outstanding--
			if a.run.err == nil {
				// First success wins; cancelling actx aborts the loser's
				// scan mid-flight. Only the winner's latency feeds the
				// adaptive-delay history — the loser's says nothing about
				// how fast a healthy partial runs.
				acancel()
				a.run.hedged = hedgedIssued
				a.run.hedgeWon = a.hedged
				r.hedgeLat.Observe(a.run.lat)
				if outstanding > 0 {
					grace := time.NewTimer(hedgeLoserGrace)
					for outstanding > 0 {
						select {
						case <-results:
							outstanding--
						case <-grace.C:
							outstanding = 0
						}
					}
					grace.Stop()
				}
				return a.run
			}
			// Keep the most diagnostic failure: a real error over the
			// cancellation it caused on the other attempt.
			if failure.err == nil || (isCtxErr(failure.err) && !isCtxErr(a.run.err)) {
				failure = a.run
			}
			if outstanding == 0 {
				failure.hedged = hedgedIssued
				return failure
			}
		}
	}
}
