package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestEmptySnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); len(s.Buckets) != 0 || s.Count != 0 || s.Sum != 0 {
		t.Errorf("empty histogram snapshot = %+v, want no buckets and Count/Sum 0/0", s)
	}
}

func TestSingleObservation(t *testing.T) {
	var h Histogram
	const v = 123456
	h.Observe(v)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != v {
		t.Fatalf("Count/Sum = %d/%d, want 1/%d", s.Count, s.Sum, v)
	}
	lo, hi := bucketBounds(bucketIndex(v))
	if v < lo || v >= hi {
		t.Fatalf("bucket [%d,%d) does not hold %d", lo, hi, v)
	}
	if len(s.Buckets) != 1 || s.Buckets[0] != (Bucket{UpperBound: hi, CumulativeCount: 1}) {
		t.Errorf("buckets = %+v, want the one bucket {%d, 1}", s.Buckets, hi)
	}
}

func TestUnderflow(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(math.MinInt64)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if len(s.Buckets) != 1 || s.Buckets[0] != (Bucket{UpperBound: 0, CumulativeCount: 2}) {
		t.Errorf("buckets = %+v, want the underflow bucket {0, 2}", s.Buckets)
	}
}

func TestOverflow(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(maxValue)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0] != (Bucket{UpperBound: math.MaxInt64, CumulativeCount: 2}) {
		t.Errorf("buckets = %+v, want the overflow bucket {MaxInt64, 2}", s.Buckets)
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
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*perG)
	}
	if last := s.Buckets[len(s.Buckets)-1].CumulativeCount; last != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", last, goroutines*perG)
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

// TestSnapshotCumulativeProperty checks Snapshot against a sorted-slice
// oracle over values spanning many octaves, underflow and overflow: every
// bucket's cumulative count is the number of observations below its upper
// bound, and the count and sum are exact.
func TestSnapshotCumulativeProperty(t *testing.T) {
	rng := xorshift(12345)
	const n = 3000
	values := make([]int64, n)
	var h Histogram
	var sum int64
	for i := range values {
		v := int64(rng.next() >> (rng.next() % 50)) // span many octaves
		switch rng.next() % 10 {
		case 0:
			v = -v // some underflow
		case 1:
			v += maxValue // some overflow
		}
		values[i] = v
		sum += v
		h.Observe(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

	s := h.Snapshot()
	if s.Count != n || s.Sum != sum {
		t.Fatalf("Count/Sum = %d/%d, want %d/%d", s.Count, s.Sum, n, sum)
	}
	prev := uint64(0)
	for _, b := range s.Buckets {
		below := uint64(sort.Search(n, func(i int) bool { return values[i] >= b.UpperBound }))
		if b.UpperBound == math.MaxInt64 {
			below = n // the overflow bucket holds MaxInt64 itself
		}
		if b.CumulativeCount != below || b.CumulativeCount <= prev {
			t.Fatalf("bucket < %d: cumulative %d, want %d (previous %d)", b.UpperBound, b.CumulativeCount, below, prev)
		}
		prev = b.CumulativeCount
	}
	if prev != n {
		t.Fatalf("last cumulative count = %d, want %d", prev, n)
	}
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
	if h.Snapshot().Count == 0 {
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
