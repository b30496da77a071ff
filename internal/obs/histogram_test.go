package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("empty histogram Count/Sum = %d/%d, want 0/0", h.Count(), h.Sum())
	}
}

func TestSingleObservation(t *testing.T) {
	var h Histogram
	const v = 123456
	h.Observe(v)
	if h.Count() != 1 || h.Sum() != v {
		t.Fatalf("Count/Sum = %d/%d, want 1/%d", h.Count(), h.Sum(), v)
	}
	lo, hi := bucketBounds(bucketIndex(v))
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < lo || got >= hi {
			t.Errorf("Quantile(%v) = %d, want within the observation's bucket [%d,%d)", q, got, lo, hi)
		}
	}
}

func TestUnderflow(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(math.MinInt64)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("all-underflow Quantile(0.5) = %d, want 0", got)
	}
}

func TestOverflow(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(maxValue)
	if got := h.Quantile(0.5); got != maxValue {
		t.Errorf("all-overflow Quantile(0.5) = %d, want maxValue %d", got, int64(maxValue))
	}
	s := h.Snapshot()
	last := s.Buckets[len(s.Buckets)-1]
	if last.UpperBound != math.MaxInt64 || last.CumulativeCount != 2 {
		t.Errorf("overflow bucket = {%d, %d}, want {MaxInt64, 2}", last.UpperBound, last.CumulativeCount)
	}
}

func TestSaturatingCounts(t *testing.T) {
	var h Histogram
	h.ObserveN(7, math.MaxUint64)
	h.ObserveN(7, 10)
	if h.Count() != math.MaxUint64 {
		t.Errorf("Count = %d, want saturation at MaxUint64", h.Count())
	}
	// Merging two saturated histograms must pin, not wrap.
	var a, b Histogram
	a.ObserveN(7, math.MaxUint64-1)
	b.ObserveN(7, math.MaxUint64-1)
	a.Merge(&b)
	if a.Count() != math.MaxUint64 {
		t.Errorf("merged Count = %d, want saturation at MaxUint64", a.Count())
	}
}

func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("Count = %d, want %d", h.Count(), goroutines*perG)
	}
	var bucketTotal uint64
	for i := range h.counts {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
}

// xorshift is a tiny deterministic PRNG so the property test needs no seed
// plumbing and never flakes.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// TestMergeAssociativityProperty checks Merge against a sorted-slice oracle:
// however observations are split across histograms and whatever order the
// parts merge in, the result is bucket-identical to observing everything
// into one histogram, and every quantile estimate lands in the bucket of the
// oracle's exact rank value.
func TestMergeAssociativityProperty(t *testing.T) {
	rng := xorshift(12345)
	const n = 3000
	values := make([]int64, n)
	for i := range values {
		v := int64(rng.next() >> (rng.next() % 50)) // span many octaves
		switch rng.next() % 10 {
		case 0:
			v = -v // some underflow
		case 1:
			v += maxValue // some overflow
		}
		values[i] = v
	}

	var all, h1, h2, h3 Histogram
	for i, v := range values {
		all.Observe(v)
		switch i % 3 {
		case 0:
			h1.Observe(v)
		case 1:
			h2.Observe(v)
		case 2:
			h3.Observe(v)
		}
	}
	// (h1+h2)+h3 and h1+(h2+h3), via copies.
	left := clone(&h1)
	left.Merge(&h2)
	left.Merge(&h3)
	right := clone(&h2)
	right.Merge(&h3)
	rightAll := clone(&h1)
	rightAll.Merge(right)

	for name, h := range map[string]*Histogram{"(1+2)+3": left, "1+(2+3)": rightAll} {
		if h.Count() != all.Count() || h.Sum() != all.Sum() {
			t.Fatalf("%s: Count/Sum = %d/%d, want %d/%d", name, h.Count(), h.Sum(), all.Count(), all.Sum())
		}
		for i := range h.counts {
			if h.counts[i].Load() != all.counts[i].Load() {
				t.Fatalf("%s: bucket %d = %d, want %d", name, i, h.counts[i].Load(), all.counts[i].Load())
			}
		}
	}

	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		rank := int(q * float64(n-1))
		oracle := sorted[rank]
		got := left.Quantile(q)
		oi := bucketIndex(oracle)
		lo, hi := bucketBounds(oi)
		switch oi {
		case 0:
			if got != 0 {
				t.Errorf("Quantile(%v) = %d, oracle %d is underflow, want 0", q, got, oracle)
			}
		case bucketCount - 1:
			if got != maxValue {
				t.Errorf("Quantile(%v) = %d, oracle %d is overflow, want maxValue", q, got, oracle)
			}
		default:
			if got < lo || got >= hi {
				t.Errorf("Quantile(%v) = %d, want in oracle bucket [%d,%d) around %d", q, got, lo, hi, oracle)
			}
		}
	}
}

func clone(h *Histogram) *Histogram {
	var c Histogram
	c.Merge(h)
	return &c
}

// TestObserveZeroAllocs pins the allocation contract of the metrics hot
// path: recording into a histogram, counter or gauge never allocates, so
// instrumentation can sit on per-task code.
func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(42)
		h.Observe(1 << 40)
		h.Observe(-1)
		c.Add(3)
		c.Inc()
		g.Set(7)
		g.Add(-2)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkObserve measures the wait-free Observe hot path; run with
// -benchmem, it doubles as the allocation pin `make allocs` checks.
func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
	if h.Count() == 0 {
		b.Fatal("no observations recorded")
	}
}

func BenchmarkObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v * 31) & (maxValue - 1)
		}
	})
}
