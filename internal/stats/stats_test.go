package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHoeffdingSerflingShrinksWithSamples(t *testing.T) {
	// ε must (weakly) shrink as m grows toward N, pointwise over a grid.
	const N = 10000
	prev := math.Inf(1)
	for _, m := range []int{1, 10, 100, 1000, 5000, 9000, 9999} {
		eps := HoeffdingSerfling(m, N, 0.05)
		if eps > prev+1e-9 {
			t.Errorf("ε(m=%d) = %g > ε(previous) = %g", m, eps, prev)
		}
		prev = eps
	}
}

func TestHoeffdingSerflingFullPopulationIsExact(t *testing.T) {
	if eps := HoeffdingSerfling(100, 100, 0.05); eps != 0 {
		t.Errorf("ε(m=N) = %g, want 0", eps)
	}
	if eps := HoeffdingSerfling(150, 100, 0.05); eps != 0 {
		t.Errorf("ε(m>N) = %g, want 0", eps)
	}
}

func TestHoeffdingSerflingDegenerateInputs(t *testing.T) {
	for _, c := range []struct {
		m, n int
		d    float64
	}{
		{0, 100, 0.05}, {-1, 100, 0.05}, {10, 0, 0.05},
		{10, 100, 0}, {10, 100, 1}, {10, 100, -0.5},
	} {
		if eps := HoeffdingSerfling(c.m, c.n, c.d); !math.IsInf(eps, 1) {
			t.Errorf("ε(%d,%d,%g) = %g, want +Inf", c.m, c.n, c.d, eps)
		}
	}
}

func TestHoeffdingSerflingTighterDeltaWiderInterval(t *testing.T) {
	// Smaller δ (more confidence) must widen the interval.
	loose := HoeffdingSerfling(500, 10000, 0.1)
	tight := HoeffdingSerfling(500, 10000, 0.001)
	if tight <= loose {
		t.Errorf("δ=0.001 ε (%g) should exceed δ=0.1 ε (%g)", tight, loose)
	}
}

func TestHoeffdingSerflingCoverageEmpirical(t *testing.T) {
	// Empirical check of the guarantee: sample without replacement from
	// a fixed [0,1] population; the true mean should fall inside the
	// interval in well over 1−δ of trials.
	rng := rand.New(rand.NewSource(9))
	const N = 2000
	pop := make([]float64, N)
	var sum float64
	for i := range pop {
		pop[i] = rng.Float64()
		sum += pop[i]
	}
	trueMean := sum / N

	const trials = 200
	const delta = 0.05
	covered := 0
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(N)
		m := 100 + rng.Intn(500)
		var drawn float64
		for i := 0; i < m; i++ {
			drawn += pop[perm[i]]
		}
		mean, eps := drawn/float64(m), HoeffdingSerfling(m, N, delta)
		if trueMean >= mean-eps && trueMean <= mean+eps {
			covered++
		}
	}
	if frac := float64(covered) / trials; frac < 1-delta {
		t.Errorf("coverage %.3f below 1-δ = %.3f", frac, 1-delta)
	}
}

func TestEpsilonMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(10000)
		m1 := 1 + rng.Intn(n-1)
		m2 := m1 + rng.Intn(n-m1)
		return HoeffdingSerfling(m2, n, 0.05) <= HoeffdingSerfling(m1, n, 0.05)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
