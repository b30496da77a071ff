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
// of atomic counters — no allocation, no locks, mergeable by addition.
//
// Values below 0 land in the underflow bucket, values at or above maxValue
// (2^maxExp ns ≈ 39 hours when observing nanoseconds) in the overflow
// bucket. Both extremes stay part of Count/Sum/Quantile so a saturated
// histogram still reports honest tails.
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
//
// Counts saturate at math.MaxUint64 instead of wrapping, so a merge of
// near-full histograms degrades to a pinned count rather than a corrupt one.
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

// ObserveN records a value n times, saturating the counts at their maximum
// instead of wrapping.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	satAdd(&h.counts[bucketIndex(v)], n)
	satAdd(&h.count, n)
	// The sum is a best-effort aggregate; clamp the product rather than
	// multiply past the int64 range.
	if n <= math.MaxInt64/2 && v != 0 {
		prod, overflow := mulClamp(v, int64(n))
		if overflow {
			prod = clampSign(v)
		}
		h.sum.Add(prod)
	}
}

// satAdd adds n to c, pinning at math.MaxUint64 on overflow.
func satAdd(c *atomic.Uint64, n uint64) {
	for {
		cur := c.Load()
		next := cur + n
		if next < cur {
			next = math.MaxUint64
		}
		if c.CompareAndSwap(cur, next) {
			return
		}
	}
}

// mulClamp multiplies a*b, reporting overflow.
func mulClamp(a, b int64) (int64, bool) {
	p := a * b
	if a != 0 && (p/a != b) {
		return 0, true
	}
	return p, false
}

func clampSign(v int64) int64 {
	if v < 0 {
		return math.MinInt64
	}
	return math.MaxInt64
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Merge folds o's counts into h (counter-wise saturating addition). Merging
// is associative and commutative up to saturation, so per-shard histograms
// can fold in any order — the property the distributed fold relies on.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			satAdd(&h.counts[i], n)
		}
	}
	if n := o.count.Load(); n > 0 {
		satAdd(&h.count, n)
	}
	h.sum.Add(o.sum.Load())
}

// Reset zeroes every counter. Not atomic with respect to concurrent
// observers: counts arriving during a reset may survive it.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution: it walks the cumulative bucket counts to the bucket holding
// the target rank and interpolates linearly inside it. The estimate is exact
// for values below subCount and within one sub-bucket width (≤ 1/subCount
// relative error) elsewhere. An empty histogram returns 0. Underflow
// observations report as 0, overflow observations as maxValue.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < bucketCount; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i == 0 {
			return 0 // underflow: all we know is v < 0; report the floor
		}
		lo, hi := bucketBounds(i)
		if i == bucketCount-1 {
			return maxValue
		}
		// Interpolate the rank's position inside the bucket.
		frac := float64(rank-cum) / float64(n)
		return lo + int64(frac*float64(hi-lo-1)+0.5)
	}
	// Counts raced with the total; fall back to the largest non-empty bucket.
	for i := bucketCount - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			if i == bucketCount-1 {
				return maxValue
			}
			_, hi := bucketBounds(i)
			return hi - 1
		}
	}
	return 0
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
