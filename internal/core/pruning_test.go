package core

import "testing"

// newPhaseState builds a phase state with the given estimates, all views
// alive, k as specified, halfway through the scan.
func newPhaseState(est []float64, k int) *phaseState {
	ps := &phaseState{
		estimates: append([]float64(nil), est...),
		alive:     make([]bool, len(est)),
		accepted:  make([]bool, len(est)),
		rowsSeen:  5000,
		totalRows: 10000,
		k:         k,
	}
	for i := range ps.alive {
		ps.alive[i] = true
	}
	return ps
}

func TestCIPrunerDropsClearlyLowViews(t *testing.T) {
	// Figure 4's scenario: V1, V2 high; V3 overlapping (within the
	// interval width, ≈0.021 at half-scan); V4 clearly low.
	ps := newPhaseState([]float64{0.9, 0.85, 0.84, 0.05}, 2)
	p := &ciPruner{delta: 0.05, scale: 1.0}
	p.prune(ps)
	if !ps.alive[0] || !ps.alive[1] {
		t.Error("top views must survive")
	}
	if !ps.alive[2] {
		t.Error("V3 overlaps the top-2 interval and must survive")
	}
	if ps.alive[3] {
		t.Error("V4's upper bound is below the top-2 lower bounds; it must be pruned")
	}
}

func TestCIPrunerKeepsAllWhenIntervalsWide(t *testing.T) {
	ps := newPhaseState([]float64{0.5, 0.49, 0.48, 0.47}, 2)
	ps.rowsSeen = 10 // huge ε
	p := &ciPruner{delta: 0.05, scale: 1.0}
	p.prune(ps)
	for i, a := range ps.alive {
		if !a {
			t.Errorf("view %d pruned under very wide intervals", i)
		}
	}
}

func TestCIPrunerNeverPrunesBelowK(t *testing.T) {
	ps := newPhaseState([]float64{0.9, 0.1}, 3) // k > views
	p := &ciPruner{delta: 0.05, scale: 1.0}
	p.prune(ps)
	if !ps.alive[0] || !ps.alive[1] {
		t.Error("with k ≥ live views nothing may be pruned")
	}
}

func TestCIPrunerDecided(t *testing.T) {
	ps := newPhaseState([]float64{0.9, 0.1, 0.1}, 2)
	p := &ciPruner{delta: 0.05, scale: 1.0}
	if p.decided(ps) {
		t.Error("3 alive > k=2: not decided")
	}
	ps.alive[2] = false
	if !p.decided(ps) {
		t.Error("2 alive = k: decided")
	}
}

func TestCIPrunerScaleControlsAggression(t *testing.T) {
	est := []float64{0.5, 0.45, 0.40, 0.35, 0.30, 0.25}
	wide := newPhaseState(est, 2)
	narrow := newPhaseState(est, 2)
	(&ciPruner{delta: 0.05, scale: 1.0}).prune(wide)
	(&ciPruner{delta: 0.05, scale: 0.01}).prune(narrow)
	countAlive := func(ps *phaseState) int {
		n := 0
		for _, a := range ps.alive {
			if a {
				n++
			}
		}
		return n
	}
	if countAlive(narrow) > countAlive(wide) {
		t.Errorf("smaller scale should prune at least as much: %d vs %d",
			countAlive(narrow), countAlive(wide))
	}
	if countAlive(narrow) != 2 {
		t.Errorf("near-zero intervals should prune to exactly k, kept %d", countAlive(narrow))
	}
}

func TestMABPrunerAcceptsTopWhenGapAboveIsLarger(t *testing.T) {
	// Δ1 = 0.9 − 0.3 = 0.6 (best vs k+1-st), Δn = 0.5 − 0.2 = 0.3
	// (k-th vs worst): accept the best.
	ps := newPhaseState([]float64{0.9, 0.5, 0.3, 0.2}, 2)
	p := &mabPruner{}
	p.prune(ps)
	if !ps.accepted[0] || ps.alive[0] {
		t.Errorf("best view should be accepted: accepted=%v alive=%v", ps.accepted, ps.alive)
	}
	if !ps.alive[1] || !ps.alive[2] || !ps.alive[3] {
		t.Error("no other view should change")
	}
}

func TestMABPrunerRejectsBottomWhenGapBelowIsLarger(t *testing.T) {
	// Δ1 = 0.50−0.45 = 0.05, Δn = 0.48−0.05 = 0.43: reject the worst.
	ps := newPhaseState([]float64{0.50, 0.48, 0.45, 0.05}, 2)
	p := &mabPruner{}
	p.prune(ps)
	if ps.alive[3] || ps.accepted[3] {
		t.Error("worst view should be rejected (alive=false, not accepted)")
	}
	if !ps.alive[0] || !ps.alive[1] || !ps.alive[2] {
		t.Error("other views should stay")
	}
}

func TestMABPrunerAcceptsAllWhenOnlyKRemain(t *testing.T) {
	ps := newPhaseState([]float64{0.5, 0.4}, 2)
	p := &mabPruner{}
	p.prune(ps)
	if !ps.accepted[0] || !ps.accepted[1] {
		t.Error("when live = kRemaining, all are accepted")
	}
	if !p.decided(ps) {
		t.Error("fully accepted → decided")
	}
}

func TestMABPrunerStopsAfterKAccepted(t *testing.T) {
	ps := newPhaseState([]float64{0.9, 0.8, 0.3, 0.2}, 1)
	p := &mabPruner{}
	// Accept the top view (Δ1 = 0.9−0.8 = 0.1 vs Δn = 0.9−0.2 = 0.7 →
	// hmm: with k=1, Δ1 = best − 2nd = 0.1, Δn = 1st(k-th) − worst = 0.7
	// → reject worst first.
	p.prune(ps)
	if ps.alive[3] {
		t.Error("worst should be rejected first")
	}
	// Force-accept then verify everything else is dropped.
	ps.accepted[0] = true
	ps.alive[0] = false
	p.prune(ps)
	for i := 1; i < 4; i++ {
		if ps.alive[i] {
			t.Errorf("view %d should be discarded once k are accepted", i)
		}
	}
}

func TestMABPrunerSequenceConvergesToTopK(t *testing.T) {
	// Driving the bandit until decided must yield exactly the top-k.
	est := []float64{0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1}
	ps := newPhaseState(est, 3)
	p := &mabPruner{}
	for i := 0; i < 20 && !p.decided(ps); i++ {
		p.prune(ps)
	}
	if !p.decided(ps) {
		t.Fatal("bandit did not converge")
	}
	for i := 0; i < 3; i++ {
		if !ps.accepted[i] && !ps.alive[i] {
			t.Errorf("true top view %d lost", i)
		}
	}
	for i := 3; i < len(est); i++ {
		if ps.accepted[i] {
			t.Errorf("non-top view %d accepted", i)
		}
	}
}

func TestRandomPrunerKeepsExactlyK(t *testing.T) {
	ps := newPhaseState(make([]float64, 20), 5)
	p := newPruner(Options{Pruning: RandomPruning, Seed: 3})
	p.prune(ps)
	if ps.aliveCount() != 5 {
		t.Errorf("random pruner kept %d views, want 5", ps.aliveCount())
	}
	if !p.decided(ps) {
		t.Error("random pruner decides immediately")
	}
	// Second prune is a no-op.
	alive := append([]bool(nil), ps.alive...)
	p.prune(ps)
	for i := range alive {
		if alive[i] != ps.alive[i] {
			t.Error("second prune changed the selection")
		}
	}
}

func TestRandomPrunerSeedDetermines(t *testing.T) {
	pick := func(seed int64) []bool {
		ps := newPhaseState(make([]float64, 12), 4)
		p := newPruner(Options{Pruning: RandomPruning, Seed: seed})
		p.prune(ps)
		return ps.alive
	}
	a, b := pick(7), pick(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same selection")
		}
	}
	c := pick(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestNoPrunerIsInert(t *testing.T) {
	ps := newPhaseState([]float64{0.9, 0.1}, 1)
	p := newPruner(Options{Pruning: NoPruning})
	p.prune(ps)
	if ps.aliveCount() != 2 {
		t.Error("NO_PRU must not prune")
	}
	if p.decided(ps) {
		t.Error("NO_PRU never decides early")
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 || clamp01(0.5) != 0.5 {
		t.Error("clamp01 wrong")
	}
}
