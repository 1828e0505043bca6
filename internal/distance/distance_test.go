package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDist draws a random probability vector of length n.
func randomDist(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return Normalize(v)
}

func TestPaperExampleCapitalGain(t *testing.T) {
	// Section 2's worked example: capital-gain-by-sex distributions for
	// unmarried (0.52, 0.48) vs married (0.31, 0.69) show large
	// deviation; age-by-sex (0.5, 0.5) vs (0.51, 0.49) shows almost none.
	gain := Distance(EMD, []float64{0.52, 0.48}, []float64{0.31, 0.69})
	age := Distance(EMD, []float64{0.5, 0.5}, []float64{0.51, 0.49})
	if gain <= age {
		t.Errorf("capital-gain EMD (%f) must exceed age EMD (%f)", gain, age)
	}
	if math.Abs(gain-0.21) > 1e-9 {
		t.Errorf("capital-gain EMD = %f, want 0.21", gain)
	}
	if math.Abs(age-0.01) > 1e-9 {
		t.Errorf("age EMD = %f, want 0.01", age)
	}
}

func TestIdentityProperty(t *testing.T) {
	// d(p, p) = 0 for every function.
	rng := rand.New(rand.NewSource(1))
	for _, f := range Funcs() {
		for trial := 0; trial < 50; trial++ {
			p := randomDist(rng, 1+rng.Intn(20))
			if d := Distance(f, p, p); d > 1e-9 {
				t.Errorf("%v: d(p,p) = %g, want 0", f, d)
			}
		}
	}
}

func TestNonNegativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, f := range Funcs() {
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(20)
			p, q := randomDist(rng, n), randomDist(rng, n)
			if d := Distance(f, p, q); d < 0 {
				t.Errorf("%v: d = %g < 0", f, d)
			}
		}
	}
}

func TestSymmetryProperty(t *testing.T) {
	// All supported functions except KL are symmetric.
	rng := rand.New(rand.NewSource(3))
	for _, f := range []Func{EMD, Euclidean, JS, MaxDiff} {
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(20)
			p, q := randomDist(rng, n), randomDist(rng, n)
			d1, d2 := Distance(f, p, q), Distance(f, q, p)
			if math.Abs(d1-d2) > 1e-12 {
				t.Errorf("%v: asymmetric: %g vs %g", f, d1, d2)
			}
		}
	}
}

func TestTriangleInequalityMetrics(t *testing.T) {
	// EMD, Euclidean, JS and MaxDiff are metrics on distributions.
	rng := rand.New(rand.NewSource(4))
	for _, f := range []Func{EMD, Euclidean, JS, MaxDiff} {
		for trial := 0; trial < 100; trial++ {
			n := 2 + rng.Intn(10)
			p, q, r := randomDist(rng, n), randomDist(rng, n), randomDist(rng, n)
			dpq := Distance(f, p, q)
			dqr := Distance(f, q, r)
			dpr := Distance(f, p, r)
			if dpr > dpq+dqr+1e-9 {
				t.Errorf("%v: triangle violated: d(p,r)=%g > %g + %g", f, dpr, dpq, dqr)
			}
		}
	}
}

// TestRangeOnProbabilityVectors: over n groups every function stays
// within its range, and point masses at opposite ends of the group axis
// reach its supremum: n-1 for EMD, sqrt(2) for Euclidean, ln(1+1/ε) for
// the ε-smoothed KL, sqrt(ln 2) for JS and 1 for MAX_DIFF.
func TestRangeOnProbabilityVectors(t *testing.T) {
	sup := func(f Func, n int) float64 {
		switch f {
		case EMD:
			return float64(n - 1)
		case Euclidean:
			return math.Sqrt2
		case KL:
			return math.Log(1 + 1/klEpsilon)
		case JS:
			return math.Sqrt(math.Ln2)
		default:
			return 1
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, f := range Funcs() {
		for n := 2; n <= 16; n++ {
			for trial := 0; trial < 10; trial++ {
				p, q := randomDist(rng, n), randomDist(rng, n)
				if d := Distance(f, p, q); d < 0 || d > sup(f, n)*(1+1e-12) {
					t.Errorf("%v: d = %g outside [0, %g] (n=%d)", f, d, sup(f, n), n)
				}
			}
			p, q := make([]float64, n), make([]float64, n)
			p[0], q[n-1] = 1, 1
			if d := Distance(f, p, q); math.Abs(d-sup(f, n)) > 1e-9*sup(f, n) {
				t.Errorf("%v: end-to-end point masses d = %g, want %g (n=%d)", f, d, sup(f, n), n)
			}
		}
	}
}

func TestEMDExtremes(t *testing.T) {
	// Moving all mass across k-1 positions costs k-1.
	p := []float64{1, 0, 0, 0}
	q := []float64{0, 0, 0, 1}
	if d := Distance(EMD, p, q); math.Abs(d-3) > 1e-12 {
		t.Errorf("EMD corner-to-corner = %g, want 3", d)
	}
	// Adjacent swap costs exactly the mass moved.
	p2 := []float64{0.6, 0.4}
	q2 := []float64{0.4, 0.6}
	if d := Distance(EMD, p2, q2); math.Abs(d-0.2) > 1e-12 {
		t.Errorf("EMD adjacent = %g, want 0.2", d)
	}
}

func TestEuclideanKnown(t *testing.T) {
	d := Distance(Euclidean, []float64{1, 0}, []float64{0, 1})
	if math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("euclidean = %g, want sqrt(2)", d)
	}
}

func TestKLAsymmetryAndZeroHandling(t *testing.T) {
	p := []float64{0.9, 0.1}
	q := []float64{0.1, 0.9}
	if Distance(KL, p, q) <= 0 {
		t.Error("KL of distinct distributions should be positive")
	}
	// Zero entries must not produce Inf/NaN thanks to smoothing.
	d := Distance(KL, []float64{1, 0}, []float64{0, 1})
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("smoothed KL = %g, want finite", d)
	}
}

func TestJSBounded(t *testing.T) {
	d := Distance(JS, []float64{1, 0}, []float64{0, 1})
	if d > math.Sqrt(math.Ln2)+1e-12 {
		t.Errorf("JS = %g exceeds sqrt(ln 2)", d)
	}
	if d < math.Sqrt(math.Ln2)-1e-9 {
		t.Errorf("JS of disjoint distributions = %g, want sqrt(ln 2)", d)
	}
}

func TestMaxDiffKnown(t *testing.T) {
	d := Distance(MaxDiff, []float64{0.5, 0.3, 0.2}, []float64{0.1, 0.3, 0.6})
	if math.Abs(d-0.4) > 1e-12 {
		t.Errorf("MAX_DIFF = %g, want 0.4", d)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths must panic")
		}
	}()
	Distance(EMD, []float64{1}, []float64{0.5, 0.5})
}

func TestNormalizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		out := Normalize(raw)
		if len(out) != len(raw) {
			return false
		}
		if len(out) == 0 {
			return true
		}
		var sum float64
		for _, x := range out {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNormalizeZeroVectorIsUniform(t *testing.T) {
	out := Normalize([]float64{0, 0, 0, 0})
	for _, x := range out {
		if math.Abs(x-0.25) > 1e-12 {
			t.Errorf("zero vector should normalize to uniform, got %v", out)
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Error("empty input → empty output")
	}
}

func TestNormalizeClampsNegatives(t *testing.T) {
	out := Normalize([]float64{-5, 1, 1})
	if out[0] != 0 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Errorf("negative clamp wrong: %v", out)
	}
}

func TestNormalizeLeavesInputAndInPlaceRewrites(t *testing.T) {
	v := []float64{-5, 1, math.Inf(1), math.NaN(), 3}
	out := Normalize(v)
	if v[0] != -5 || !math.IsInf(v[2], 1) {
		t.Errorf("Normalize modified its input: %v", v)
	}
	NormalizeInPlace(v)
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(out[i]) {
			t.Fatalf("NormalizeInPlace %v, Normalize %v", v, out)
		}
	}
}

func TestAlign(t *testing.T) {
	target := map[string]float64{"a": 1, "b": 2}
	ref := map[string]float64{"b": 3, "c": 4}
	groups, tv, rv := Align(target, ref)
	if len(groups) != 3 || groups[0] != "a" || groups[1] != "b" || groups[2] != "c" {
		t.Fatalf("groups = %v", groups)
	}
	if tv[0] != 1 || tv[1] != 2 || tv[2] != 0 {
		t.Errorf("target aligned = %v", tv)
	}
	if rv[0] != 0 || rv[1] != 3 || rv[2] != 4 {
		t.Errorf("reference aligned = %v", rv)
	}
}

func TestDeviationEndToEnd(t *testing.T) {
	// Deviation(map, map) must equal manual align+normalize+distance.
	target := map[string]float64{"F": 5289, "M": 4879} // ≈ paper Table 1c ratios
	ref := map[string]float64{"F": 1500, "M": 3400}
	got := Deviation(EMD, target, ref)
	_, tv, rv := Align(target, ref)
	want := Distance(EMD, Normalize(tv), Normalize(rv))
	if got != want {
		t.Errorf("Deviation = %g, manual = %g", got, want)
	}
	if got <= 0 {
		t.Error("deviating distributions must have positive utility")
	}
}

func TestDeviationDisjointGroups(t *testing.T) {
	// Groups present only in one side still align correctly.
	d := Deviation(EMD, map[string]float64{"x": 1}, map[string]float64{"y": 1})
	if d <= 0 {
		t.Error("disjoint groups should deviate")
	}
}

func TestConsistencyUnderSampling(t *testing.T) {
	// Property 4.1: as the sample grows, the estimated deviation
	// converges to the true deviation, for every distance function.
	rng := rand.New(rand.NewSource(42))
	groups := []string{"a", "b", "c", "d"}
	pTrue := []float64{0.4, 0.3, 0.2, 0.1}
	qTrue := []float64{0.1, 0.2, 0.3, 0.4}
	draw := func(dist []float64, n int) map[string]float64 {
		counts := make(map[string]float64)
		for i := 0; i < n; i++ {
			r := rng.Float64()
			cum := 0.0
			for j, p := range dist {
				cum += p
				if r <= cum {
					counts[groups[j]]++
					break
				}
			}
		}
		return counts
	}
	for _, f := range Funcs() {
		trueD := Distance(f, pTrue, qTrue)
		small := math.Abs(Deviation(f, draw(pTrue, 100), draw(qTrue, 100)) - trueD)
		var bigSum float64
		const reps = 5
		for r := 0; r < reps; r++ {
			bigSum += math.Abs(Deviation(f, draw(pTrue, 50000), draw(qTrue, 50000)) - trueD)
		}
		big := bigSum / reps
		if big > small+0.02 {
			t.Errorf("%v: estimate did not improve with samples: err(100)=%g err(50000)=%g", f, small, big)
		}
		if big > 0.05*math.Max(trueD, 1) {
			t.Errorf("%v: large-sample error %g too big (true %g)", f, big, trueD)
		}
	}
}

func TestParseFunc(t *testing.T) {
	for _, f := range Funcs() {
		got, err := ParseFunc(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunc(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFunc("EUCLIDEAN"); err != nil {
		t.Error("EUCLIDEAN should parse")
	}
	if _, err := ParseFunc("L2"); err != nil {
		t.Error("L2 alias should parse")
	}
	if _, err := ParseFunc("bogus"); err == nil {
		t.Error("bogus name should fail")
	}
}

func TestFuncStrings(t *testing.T) {
	if EMD.String() != "EMD" || MaxDiff.String() != "MAX_DIFF" {
		t.Error("Func.String wrong")
	}
	if Func(99).String() == "" {
		t.Error("unknown Func should still render")
	}
}
