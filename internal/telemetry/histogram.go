// Package telemetry holds the lock-free latency histogram shared by
// every subsystem that reports timing quantiles — the query server's
// per-endpoint latencies and the durability layer's fsync and
// checkpoint timings. It lived inside internal/server until the WAL
// needed the same shape; the type is deliberately tiny so embedding it
// costs no locks and one atomic add per bucket hit.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Buckets are log-linear, in the style of HDR histograms: durations are
// counted in units of 2^histShift ns (128 ns); below 8 units (1.024 µs)
// each unit is its own bucket, and from there every power of two is
// split into histSub equal sub-buckets, so a bucket is at most 1/8 of
// its lower bound wide. That keeps quantiles within ~12.5% from the
// microsecond kernel calls of a top-10 query up to ~18 minutes; longer
// samples share the last bucket. The bucket of a sample is found in
// O(1) from its bit length.
const (
	histShift   = 7                    // bucket unit: 128 ns
	histSubBits = 3                    // log2 of the sub-buckets per power of two
	histSub     = 1 << histSubBits     // 8
	histGroups  = 31                   // one linear group, then 30 octaves
	histCount   = histGroups * histSub // 248 buckets
)

// Histogram is a lock-free log-linear latency histogram. The zero value
// is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histCount]atomic.Int64
}

// bucketOf maps a duration in ns to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns) >> histShift
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v lies in [2^e, 2^(e+1)), e >= histSubBits
	i := (e-histSubBits+1)*histSub + int(v>>uint(e-histSubBits)) - histSub
	if i >= histCount {
		return histCount - 1
	}
	return i
}

// bucketRange returns bucket i's bounds [lo, hi) in ns.
func bucketRange(i int) (lo, hi int64) {
	g, s := i/histSub, int64(i%histSub)
	if g == 0 {
		return s << histShift, (s + 1) << histShift
	}
	lo = (histSub + s) << uint(g-1)
	return lo << histShift, (lo + 1<<uint(g-1)) << histShift
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q < 1) in milliseconds by
// linear interpolation inside the containing bucket. With no samples it
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var acc int64
	var lo, hi int64
	for i := 0; i < histCount; i++ {
		c := h.buckets[i].Load()
		lo, hi = bucketRange(i)
		if float64(acc+c) >= rank && c > 0 {
			frac := (rank - float64(acc)) / float64(c)
			return (float64(lo) + frac*float64(hi-lo)) / 1e6
		}
		acc += c
	}
	// Concurrent observers raced the count load; the top bucket's
	// bound is the best estimate left.
	return float64(hi) / 1e6
}

// Summary renders the histogram for expvar: count, mean and the
// quantiles a load test regresses against.
func (h *Histogram) Summary() map[string]any {
	n := h.count.Load()
	out := map[string]any{
		"count": n,
		"p50":   h.Quantile(0.50),
		"p90":   h.Quantile(0.90),
		"p99":   h.Quantile(0.99),
	}
	if n > 0 {
		out["mean"] = float64(h.sumNs.Load()) / float64(n) / 1e6
	} else {
		out["mean"] = 0.0
	}
	return out
}
