// Package distance implements the distance functions SeeDB uses to score
// the deviation between a target-view distribution and a reference-view
// distribution (Section 2 of the paper): Earth Mover's Distance (the
// paper's default), Euclidean distance, Kullback–Leibler divergence,
// Jensen–Shannon distance, and MAX_DIFF.
//
// All functions operate on aligned probability vectors: two slices of the
// same length whose entries are the probabilities of the same group in
// the target and reference distributions. Use Normalize to turn raw
// aggregate summaries into probability distributions, and Align to place
// two group→value maps onto a shared group order.
//
// Every function in this package is a consistent distance function in the
// paper's sense (Property 4.1): it is continuous in its arguments, so as
// partial results converge to the true distributions the estimated
// utility converges to the true utility.
package distance

import (
	"fmt"
	"math"
	"sort"
)

// Func identifies a distance function.
type Func int

// Supported distance functions.
const (
	// EMD is the Earth Mover's Distance between 1-D distributions laid
	// out on the group axis (ordinal ground distance with unit spacing,
	// the standard 1-D EMD). This is SeeDB's default utility distance.
	EMD Func = iota
	// Euclidean is the L2 distance between probability vectors.
	Euclidean
	// KL is the (smoothed) Kullback–Leibler divergence D(P‖Q).
	KL
	// JS is the Jensen–Shannon distance (square root of JS divergence),
	// a true metric bounded by sqrt(ln 2).
	JS
	// MaxDiff is the maximum absolute per-group difference (L∞). The
	// paper's technical report uses it as an alternative ranking metric.
	MaxDiff
)

// String returns the canonical name of the function.
func (f Func) String() string {
	switch f {
	case EMD:
		return "EMD"
	case Euclidean:
		return "EUCLIDEAN"
	case KL:
		return "KL"
	case JS:
		return "JS"
	case MaxDiff:
		return "MAX_DIFF"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// ParseFunc resolves a distance-function name (case-sensitive, canonical
// names as returned by String).
func ParseFunc(name string) (Func, error) {
	switch name {
	case "EMD":
		return EMD, nil
	case "EUCLIDEAN", "L2":
		return Euclidean, nil
	case "KL":
		return KL, nil
	case "JS":
		return JS, nil
	case "MAX_DIFF", "MAXDIFF":
		return MaxDiff, nil
	default:
		return 0, fmt.Errorf("distance: unknown function %q", name)
	}
}

// Funcs lists every supported distance function, in a stable order.
func Funcs() []Func { return []Func{EMD, Euclidean, KL, JS, MaxDiff} }

// klEpsilon smooths zero probabilities for KL (which is otherwise
// unbounded); the smoothed divergence remains consistent.
const klEpsilon = 1e-9

// Distance computes f between aligned probability vectors p and q.
// Vectors must have equal length; empty vectors have distance 0.
func Distance(f Func, p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("distance: mismatched lengths %d vs %d", len(p), len(q)))
	}
	switch f {
	case EMD:
		return emd1D(p, q)
	case Euclidean:
		return euclidean(p, q)
	case KL:
		return kl(p, q)
	case JS:
		return js(p, q)
	case MaxDiff:
		return maxDiff(p, q)
	default:
		panic(fmt.Sprintf("distance: unknown function %v", f))
	}
}

// emd1D computes the 1-D Earth Mover's Distance with unit ground distance
// between adjacent positions: EMD = Σ_i |CDF_p(i) − CDF_q(i)|.
func emd1D(p, q []float64) float64 {
	var cum, total float64
	for i := range p {
		cum += p[i] - q[i]
		total += math.Abs(cum)
	}
	return total
}

// euclidean computes the L2 distance.
func euclidean(p, q []float64) float64 {
	var sum float64
	for i := range p {
		d := p[i] - q[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// kl computes the smoothed KL divergence D(p ‖ q).
func kl(p, q []float64) float64 {
	var sum float64
	for i := range p {
		pi := p[i] + klEpsilon
		qi := q[i] + klEpsilon
		sum += pi * math.Log(pi/qi)
	}
	if sum < 0 {
		// Numerical noise from smoothing can produce a tiny negative.
		return 0
	}
	return sum
}

// js computes the Jensen–Shannon distance: sqrt(JSD) where
// JSD = ½ D(p‖m) + ½ D(q‖m), m = (p+q)/2.
func js(p, q []float64) float64 {
	var sum float64
	for i := range p {
		pi, qi := p[i], q[i]
		m := (pi + qi) / 2
		if pi > 0 && m > 0 {
			sum += 0.5 * pi * math.Log(pi/m)
		}
		if qi > 0 && m > 0 {
			sum += 0.5 * qi * math.Log(qi/m)
		}
	}
	if sum < 0 {
		return 0
	}
	return math.Sqrt(sum)
}

// maxDiff computes the L∞ distance.
func maxDiff(p, q []float64) float64 {
	var m float64
	for i := range p {
		if d := math.Abs(p[i] - q[i]); d > m {
			m = d
		}
	}
	return m
}

// Normalize scales a non-negative vector into a probability distribution
// (entries sum to 1) and returns it as a new slice; v is not modified.
// See NormalizeInPlace for the rules.
func Normalize(v []float64) []float64 {
	out := append(make([]float64, 0, len(v)), v...)
	NormalizeInPlace(out)
	return out
}

// NormalizeInPlace scales v into a probability distribution (entries sum
// to 1) in place. Negative and NaN entries are clamped to zero
// (aggregates such as SUM over negative measures are shifted by the
// caller if relevant; SeeDB normalizes magnitudes) and +Inf to the
// largest float. A zero vector normalizes to the uniform distribution so
// that comparisons remain well-defined.
func NormalizeInPlace(v []float64) {
	var sum, maxv float64
	for i, x := range v {
		if x < 0 || math.IsNaN(x) {
			x = 0
		}
		if math.IsInf(x, 1) {
			x = math.MaxFloat64
		}
		v[i] = x
		sum += x
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(sum, 1) {
		// Rescale by the maximum to avoid overflow, then re-sum.
		sum = 0
		for i := range v {
			v[i] /= maxv
			sum += v[i]
		}
	}
	if sum == 0 {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// Align places two group→value maps onto a shared group axis (the sorted
// union of keys; missing groups contribute 0) and returns the aligned raw
// vectors together with the group order.
func Align(target, reference map[string]float64) (groups []string, t, r []float64) {
	seen := make(map[string]bool, len(target)+len(reference))
	for g := range target {
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	for g := range reference {
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	t = make([]float64, len(groups))
	r = make([]float64, len(groups))
	for i, g := range groups {
		t[i] = target[g]
		r[i] = reference[g]
	}
	return groups, t, r
}

// Deviation is the full SeeDB utility computation for one view: align the
// two group→aggregate maps, normalize each side into a probability
// distribution, and return their distance under f.
func Deviation(f Func, target, reference map[string]float64) float64 {
	_, t, r := Align(target, reference)
	return Distance(f, Normalize(t), Normalize(r))
}
