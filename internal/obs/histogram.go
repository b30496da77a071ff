package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: log-linear ("HDR-lite") over non-negative int64
// values. Each power-of-two octave is split into subCount linear sub-buckets,
// bounding the relative error of any reconstructed value by 1/subCount
// (12.5% with subCount = 8) while keeping the whole structure a fixed array
// of atomic counters — no allocation, no locks.
//
// Values below 0 land in the underflow bucket, values at or above maxValue
// (2^maxExp ns ≈ 39 hours when observing nanoseconds) in the overflow
// bucket. Both extremes stay part of the snapshot's count and sum, so a
// saturated histogram still reports honest tails.
const (
	subBits  = 3
	subCount = 1 << subBits // linear sub-buckets per octave
	// maxExp bounds the representable range: values in [0, 2^maxExp).
	maxExp = 47
	// valueBuckets spans the log-linear range: one linear run of subCount
	// buckets for values < subCount, then subCount buckets per octave.
	valueBuckets = (maxExp - subBits + 1) * subCount
	// bucketCount adds the underflow (index 0) and overflow (last index)
	// buckets around the value range.
	bucketCount = valueBuckets + 2
	// maxValue is the smallest value counted as overflow.
	maxValue = int64(1) << maxExp
)

// Histogram is a fixed-bucket, lock-free latency/size histogram. All methods
// are safe for concurrent use; Observe is wait-free (one atomic add per
// counter) and allocation-free. The zero Histogram is ready to use.
type Histogram struct {
	counts [bucketCount]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// bucketIndex maps a value to its bucket: 0 for underflow (v < 0),
// bucketCount-1 for overflow (v >= maxValue), log-linear in between.
func bucketIndex(v int64) int {
	if v < 0 {
		return 0
	}
	if v >= maxValue {
		return bucketCount - 1
	}
	u := uint64(v)
	exp := bits.Len64(u|1) - 1
	if exp < subBits {
		// The first subCount values are exact.
		return 1 + int(u)
	}
	// u>>(exp-subBits) is in [subCount, 2*subCount): the sub-bucket plus a
	// subCount offset that lands each octave after the previous one.
	return 1 + (exp-subBits)*subCount + int(u>>uint(exp-subBits))
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i of the
// log-linear region. For the underflow bucket it returns [minInt64, 0); for
// the overflow bucket [maxValue, maxInt64].
func bucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return math.MinInt64, 0
	case i >= bucketCount-1:
		return maxValue, math.MaxInt64
	}
	k := i - 1 // index into the log-linear region
	if k < subCount {
		return int64(k), int64(k) + 1
	}
	octave := k/subCount - 1 + subBits // exponent of the octave's low bound
	sub := k % subCount
	width := int64(1) << uint(octave-subBits)
	lo = (int64(subCount) + int64(sub)) << uint(octave-subBits)
	return lo, lo + width
}

// Observe records one value. Wait-free and allocation-free: one atomic add
// on the bucket, the total count and the sum.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns the non-empty buckets as (upperBound, cumulativeCount)
// pairs in ascending bound order, plus the total count and sum — the shape
// Prometheus histogram exposition wants. The final pair is always the
// overflow bucket rendered with upper bound math.MaxInt64 (exposed as +Inf).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var cum uint64
	for i := 0; i < bucketCount; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, Bucket{UpperBound: hi, CumulativeCount: cum})
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Bucket is one cumulative histogram bucket: everything observed at values
// strictly below UpperBound (the bucket's exclusive high edge).
type Bucket struct {
	UpperBound      int64
	CumulativeCount uint64
}

// HistogramSnapshot is a point-in-time copy of a histogram's non-empty
// buckets.
type HistogramSnapshot struct {
	Buckets []Bucket
	Count   uint64
	Sum     int64
}
