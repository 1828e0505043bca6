package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},                // 1024µs > 1ms? 1ms = 1000µs → 2^10 = 1024 ≥ 1000
		{time.Second, 20},                     // 1e6µs ≤ 2^20 = 1048576
		{500 * time.Hour, numHistBuckets - 1}, // clamps
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("count = %d", snap.Count)
	}
	// p50 must live in the ~1ms bucket (≤ ~1.024ms upper bound), p99 in
	// the bucket containing 100ms (upper bound 131ms).
	if snap.P50MS <= 0 || snap.P50MS > 1.1 {
		t.Fatalf("p50 = %vms", snap.P50MS)
	}
	if snap.P99MS < 50 || snap.P99MS > 140 {
		t.Fatalf("p99 = %vms", snap.P99MS)
	}
	if snap.P90MS > snap.P95MS || snap.P95MS > snap.P99MS {
		t.Fatalf("quantiles not monotone: p90=%v p95=%v p99=%v", snap.P90MS, snap.P95MS, snap.P99MS)
	}
	if snap.SumMS < 1000 || snap.SumMS > 1200 {
		t.Fatalf("sum = %vms, want ~1090", snap.SumMS)
	}
	// Buckets are cumulative and end at the total count.
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.Cumulative != 100 {
		t.Fatalf("last bucket cumulative = %d", last.Cumulative)
	}
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].Cumulative < snap.Buckets[i-1].Cumulative {
			t.Fatalf("bucket %d not cumulative", i)
		}
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if snap.Count != 0 || snap.P99MS != 0 || snap.SumMS != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
}

// TestHistogramNegativeObservesZero: a negative duration (a clock step
// between start and end) counts as zero, in the first bucket.
func TestHistogramNegativeObservesZero(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 2 || snap.SumMS != 3 {
		t.Fatalf("count = %d, sum = %vms, want 2 and 3ms", snap.Count, snap.SumMS)
	}
	if snap.Buckets[0].Cumulative != 1 {
		t.Fatalf("first bucket cumulative = %d, want 1", snap.Buckets[0].Cumulative)
	}
}

// TestHistogramClampsPastTopBucket: an observation past the top finite
// boundary lands in the last bucket, which is where the snapshot's
// bucket list ends, and the quantiles stay at or below its bound.
func TestHistogramClampsPastTopBucket(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(500 * time.Hour)
	snap := h.Snapshot()
	if len(snap.Buckets) != numHistBuckets {
		t.Fatalf("%d buckets, want %d", len(snap.Buckets), numHistBuckets)
	}
	last := snap.Buckets[numHistBuckets-1]
	if last.Bound != bucketBound(numHistBuckets-1) || last.Cumulative != 2 {
		t.Fatalf("last bucket = %+v", last)
	}
	if top := durMS(last.Bound); snap.P99MS <= 0 || snap.P99MS > top {
		t.Fatalf("p99 = %vms, want in (0, %v]", snap.P99MS, top)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d", got)
	}
}
