package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Log-bucketed latency histograms.
//
// Buckets are powers of two: bucket 0 holds values <= 0, bucket i (i >= 1)
// holds values in [2^(i-1), 2^i - 1]. A histogram is a fixed-size value —
// no allocation, mergeable across ranks and runs by plain addition — and
// quantile estimates are bucket upper bounds clamped to the observed
// maximum, so P99 never exceeds Max and a single-valued histogram reports
// that value exactly at every quantile.

// NumBuckets is the bucket count of Hist: enough for any non-negative
// int64 (bits.Len64 of a positive int64 is at most 63).
const NumBuckets = 64

// Hist is a mergeable log2-bucketed histogram of non-negative int64
// samples (virtual or wall nanoseconds). The zero value is an empty
// histogram ready for use. Not safe for concurrent writers — use
// AtomicHist where producers race.
type Hist struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// histBucket returns the bucket index for v (negative values clamp to 0).
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[histBucket(v)]++
}

// Add merges o into h.
func (h *Hist) Add(o Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the q*Count-th sample, clamped to Max. Empty histograms
// report 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := int64(0)
	for i, b := range h.Buckets {
		cum += b
		if float64(cum) >= target {
			u := bucketUpper(i)
			if u > h.Max {
				u = h.Max
			}
			return u
		}
	}
	return h.Max
}

// P50, P90 and P99 are the headline quantiles of the metrics tables.
func (h *Hist) P50() int64 { return h.Quantile(0.50) }
func (h *Hist) P90() int64 { return h.Quantile(0.90) }
func (h *Hist) P99() int64 { return h.Quantile(0.99) }

// String renders the digest used by summaries: count, p50/p90/p99 and max.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d p50=%d p90=%d p99=%d max=%d",
		h.Count, h.P50(), h.P90(), h.P99(), h.Max)
}

// AtomicHist is the concurrent counterpart of Hist for wall-clock contexts
// (the rt layer, real-goroutine race probes): producers Observe from any
// number of goroutines; Snapshot returns a mergeable Hist. The zero value
// is ready for use.
type AtomicHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one sample.
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[histBucket(v)].Add(1)
}

// Snapshot returns the histogram's current value. Concurrent with Observe
// the fields may be mutually slightly stale; quiescent snapshots are exact.
func (h *AtomicHist) Snapshot() Hist {
	var out Hist
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	for i := range out.Buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	return out
}
