package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear with histSub sub-buckets per
// octave. Values below histSub land in exact unit buckets (0..15);
// above that, each power-of-two octave splits into histSub
// equal-width sub-buckets, so the relative width of any bucket is at
// most 1/histSub = 6.25%. That bound is the histogram's whole
// contract: any quantile it reports is within one bucket of the true
// order statistic, which is what the property test asserts.
const (
	histSub     = 16
	histSubBits = 4
	// 59 octaves (bits.Len64 of a positive int64 tops out at 63) of
	// histSub buckets above the 16 unit buckets:
	// bucketOf(math.MaxInt64) == 959.
	histBuckets = 960
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	b := bits.Len64(u) // >= 5
	// The leading bit plus the next histSubBits bits select the
	// sub-bucket: u>>(b-5) is in [16,32).
	return (b-4)*histSub + int(u>>(uint(b)-5)) - histSub
}

// bucketLow is the inverse: the smallest value that maps to bucket i.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := uint(i/histSub - 1)
	r := uint64(i % histSub)
	lo := (histSub + r) << e
	if lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}

// Histogram is a lock-free log-bucketed latency histogram. Record is
// safe for concurrent use from any number of goroutines; Quantile
// reads the buckets without synchronization, so a quantile
// taken during concurrent recording is a consistent-enough snapshot
// (each bucket is atomically read) but not a point-in-time one.
//
// The zero value is ready to use. A Histogram weighs about 8KB and is
// meant to live for the process lifetime keyed by statement
// fingerprint — not to be allocated per request.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) { h.RecordNs(int64(d)) }

// RecordNs adds one observation in nanoseconds.
func (h *Histogram) RecordNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNs returns the total of all observations in nanoseconds.
func (h *Histogram) SumNs() int64 { return h.sum.Load() }

// MaxNs returns the largest observation in nanoseconds.
func (h *Histogram) MaxNs() int64 { return h.max.Load() }

// MeanNs returns the mean observation in nanoseconds.
func (h *Histogram) MeanNs() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / int64(n)
}

// Quantile returns the p-quantile (0 < p <= 1) as the midpoint of the
// bucket holding the rank-⌈p·n⌉ observation — within one bucket
// (≤6.25% relative error) of the true order statistic. An empty
// histogram reports 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			return time.Duration(lo + (hi-lo)/2)
		}
	}
	return time.Duration(h.max.Load())
}
