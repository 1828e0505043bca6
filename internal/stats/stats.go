// Package stats provides the statistical machinery behind SeeDB's
// confidence-interval pruning: the Hoeffding–Serfling inequality for
// sampling without replacement (Theorem 4.1 in the paper), which
// core/pruning.go calls once per view per phase.
package stats

import (
	"math"
)

// HoeffdingSerfling returns the half-width ε of the running confidence
// interval after drawing m of N values in [0, 1] without replacement,
// such that the true mean lies within [mean−ε, mean+ε] with probability
// at least 1−δ simultaneously for all prefixes 1..m (Theorem 4.1):
//
//	ε_m = sqrt( (1 − (m−1)/N) · (2·log log m + log(π²/(3δ))) / (2m) )
//
// The log log m term is clamped at 0 for m < 3 (log log is undefined or
// negative there; the clamp only widens the interval, preserving the
// guarantee).
func HoeffdingSerfling(m, N int, delta float64) float64 {
	if m <= 0 || N <= 0 || delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	if m >= N {
		return 0 // the whole population has been seen
	}
	loglog := 0.0
	if m >= 3 {
		loglog = math.Log(math.Log(float64(m)))
		if loglog < 0 {
			loglog = 0
		}
	}
	shrink := 1 - float64(m-1)/float64(N)
	num := shrink * (2*loglog + math.Log(math.Pi*math.Pi/(3*delta)))
	return math.Sqrt(num / (2 * float64(m)))
}
