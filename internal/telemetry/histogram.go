package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: values 0..15 get one exact bucket each; every
// larger value lands in one of 16 linear sub-buckets of its power-of-two
// octave. A recorded value is therefore attributed to a bucket whose upper
// bound overshoots it by at most 1/16 (6.25%), which bounds the relative
// error of every reported quantile. 16 + 60*16 buckets of 8 bytes is ~8 KB
// per histogram — cheap enough to hand one to every (metric, label) pair.
const (
	histSmall   = 16                         // exact buckets for 0..15
	histSub     = 16                         // sub-buckets per octave
	histBuckets = histSmall + (64-4)*histSub // octaves 4..63
	maxQuantErr = 1.0 / histSub              // relative quantile error bound
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSmall {
		return int(v)
	}
	o := bits.Len64(v) - 1 // 4..63: 2^o <= v < 2^(o+1)
	sub := int(v>>(uint(o)-4)) - histSub
	return histSmall + (o-4)*histSub + sub
}

// bucketUpper returns the largest value the bucket holds (its inclusive
// upper bound; the Prometheus `le` label).
func bucketUpper(idx int) uint64 {
	if idx < histSmall {
		return uint64(idx)
	}
	o := uint(idx-histSmall)/histSub + 4
	sub := uint64((idx-histSmall)%histSub) + histSmall
	return (sub+1)<<(o-4) - 1
}

// HistogramOpts fixes a histogram's exposition and leakage class at
// registration time.
type HistogramOpts struct {
	// Scale multiplies raw recorded values on exposition; durations are
	// recorded in nanoseconds and exported in seconds with Scale 1e-9.
	// 0 means 1 (counts exported as-is).
	Scale float64
	// Timing marks the histogram as holding wall-clock durations: its
	// bucket contents and sum are elided from leakage-test deltas (only
	// the observation count — a trace function — is compared).
	Timing bool
}

// Seconds are the standard options for a nanosecond-recorded latency
// histogram.
func Seconds() HistogramOpts { return HistogramOpts{Scale: 1e-9, Timing: true} }

// Histogram is a lock-free log-bucketed histogram. Observe is a pair of
// atomic adds — no locks, no allocation — so it belongs on serving hot
// paths. Snapshots taken under concurrent recording are internally
// consistent enough for monitoring: each bucket is read atomically, and
// count is read last so Count >= sum(Buckets) never underflows a quantile.
// Nil-receiver-safe like Counter and Gauge.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
	scale   float64
	timing  bool
}

func newHistogram(opts HistogramOpts) *Histogram {
	h := &Histogram{scale: opts.Scale, timing: opts.Timing}
	if h.scale == 0 {
		h.scale = 1
	}
	return h
}

// NewHistogram returns an unregistered histogram, for tests and local
// aggregation. Registered histograms come from Registry.Histogram.
func NewHistogram(opts HistogramOpts) *Histogram { return newHistogram(opts) }

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
	h.count.Add(1)
}

// Timing reports whether the histogram holds wall-clock durations.
func (h *Histogram) Timing() bool { return h != nil && h.timing }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, the
// unit quantiles are computed from.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets []uint64
}

// Snapshot copies the bucket state. Safe under concurrent Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Buckets: make([]uint64, histBuckets)}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	// Sum is advisory under concurrency; read after the buckets so it
	// covers at least the observations counted above.
	s.Sum = h.sum.Load()
	return s
}

// Sub returns the observations recorded between an earlier snapshot and
// this one.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
		Buckets: make([]uint64, len(s.Buckets)),
	}
	for i := range s.Buckets {
		var p uint64
		if i < len(prev.Buckets) {
			p = prev.Buckets[i]
		}
		d.Buckets[i] = s.Buckets[i] - p
	}
	return d
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded values: the inclusive upper bound of the bucket holding the
// ceil(q*count)-th smallest observation. The bound overshoots the true
// quantile by at most one part in histSub (6.25%) for values >= histSmall,
// and is exact below. Returns NaN when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return float64(bucketUpper(i))
		}
	}
	return float64(bucketUpper(len(s.Buckets) - 1))
}
