package telemetry

import (
	"math/bits"
	"sync"
	"time"
)

// numHistBuckets bounds the log-bucketed histogram: bucket i holds
// observations with d <= 2^i microseconds, so the top finite boundary
// 2^35µs ≈ 9.5 hours comfortably covers any request this system serves.
// Observations past it clamp into the last bucket.
const numHistBuckets = 36

// Histogram is a log2-bucketed latency histogram: fixed memory, one
// short critical section per observation, and quantile
// estimates within a factor of 2 (linear interpolation inside the
// matching power-of-two bucket). The zero value is ready to use.
type Histogram struct {
	mu     sync.Mutex
	counts [numHistBuckets]uint64
	count  uint64
	sum    time.Duration
}

// bucketFor maps a duration to its bucket index: the smallest i with
// d <= 2^i microseconds.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	us := uint64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	// bits.Len64(x-1) is ceil(log2(x)) for x >= 2.
	i := bits.Len64(us - 1)
	if i >= numHistBuckets {
		return numHistBuckets - 1
	}
	return i
}

// bucketBound returns bucket i's inclusive upper boundary.
func bucketBound(i int) time.Duration {
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketFor(d)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// HistBucket is one cumulative bucket of a snapshot: the count of
// observations at or below Bound.
type HistBucket struct {
	Bound      time.Duration `json:"bound"`
	Cumulative uint64        `json:"cumulative"`
}

// HistogramSnapshot is a consistent point-in-time view, with quantiles
// precomputed for reports (all in float milliseconds).
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	SumMS float64 `json:"sum_ms"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// Buckets lists every non-degenerate cumulative bucket up to the
	// first one holding all observations (Prometheus exposition re-adds
	// the +Inf bucket).
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram under one lock acquisition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := h.counts
	count, sum := h.count, h.sum
	h.mu.Unlock()

	snap := HistogramSnapshot{Count: count, SumMS: durMS(sum)}
	cum := uint64(0)
	for i := 0; i < numHistBuckets; i++ {
		cum += counts[i]
		snap.Buckets = append(snap.Buckets, HistBucket{Bound: bucketBound(i), Cumulative: cum})
		if cum == count && count > 0 {
			break
		}
	}
	snap.P50MS = quantile(counts[:], count, 0.50)
	snap.P90MS = quantile(counts[:], count, 0.90)
	snap.P95MS = quantile(counts[:], count, 0.95)
	snap.P99MS = quantile(counts[:], count, 0.99)
	return snap
}

// quantile estimates the q-quantile in milliseconds by walking the
// cumulative distribution and interpolating linearly inside the bucket
// the rank falls in.
func quantile(counts []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	cum := uint64(0)
	for i := range counts {
		prev := cum
		cum += counts[i]
		if float64(cum) >= rank && counts[i] > 0 {
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketBound(i - 1)
			}
			upper := bucketBound(i)
			frac := (rank - float64(prev)) / float64(counts[i])
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return durMS(lower) + frac*durMS(upper-lower)
		}
	}
	return durMS(bucketBound(numHistBuckets - 1))
}
