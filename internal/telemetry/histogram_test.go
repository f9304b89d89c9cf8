package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 200 || p50 > 900 {
		t.Fatalf("p50 = %.1fms, want ~500ms within bucket resolution", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %.1f < p50 %.1f", p99, p50)
	}
	sum := h.Summary()
	if sum["count"].(int64) != 1000 {
		t.Fatalf("count %v", sum["count"])
	}
	if m := sum["mean"].(float64); m < 400 || m > 600 {
		t.Fatalf("mean %.1fms, want ~500", m)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	sum := h.Summary()
	if sum["count"].(int64) != 0 || sum["mean"].(float64) != 0 {
		t.Fatalf("empty summary = %v", sum)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(20 * time.Minute) // beyond the last bounded bucket
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Fatalf("overflow quantile = %v", q)
	}
}

// TestHistogramLogUniformQuantiles checks the quantiles against an exact
// sorted sample of durations spread log-uniformly from 1 µs to 1 s: each
// estimate must lie within one sub-bucket's relative width (1/8) of the
// exact order statistic, at the microsecond end as well as the second
// end — the range a kernel call and a fold span.
func TestHistogramLogUniformQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	sample := make([]float64, 20000)
	for i := range sample {
		ns := math.Round(math.Exp(math.Log(1e3) + rng.Float64()*(math.Log(1e9)-math.Log(1e3))))
		sample[i] = ns
		h.Observe(time.Duration(ns))
	}
	sort.Float64s(sample)
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		exact := sample[int(math.Ceil(q*float64(len(sample))))-1] / 1e6
		got := h.Quantile(q)
		if math.Abs(got-exact) > exact/histSub {
			t.Errorf("p%g = %.6f ms, exact %.6f ms: off by more than 1/%d", q*100, got, exact, histSub)
		}
	}
}

// TestHistogramBucketsTile: consecutive buckets share their bounds, every
// bucket is at most 1/8 of its lower bound wide (past the linear
// sub-microsecond group), and bucketOf puts each bound in its own bucket.
func TestHistogramBucketsTile(t *testing.T) {
	var prevHi int64
	for i := 0; i < histCount; i++ {
		lo, hi := bucketRange(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%d, %d), previous ended at %d", i, lo, hi, prevHi)
		}
		if i >= histSub && (hi-lo)*histSub > lo {
			t.Fatalf("bucket %d = [%d, %d) wider than 1/%d of its bound", i, lo, hi, histSub)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(hi - 1); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
	if bucketOf(-5) != 0 || bucketOf(math.MaxInt64) != histCount-1 {
		t.Fatal("out-of-range durations not clamped to the end buckets")
	}
}
