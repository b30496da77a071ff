package main

import (
	"strconv"
	"syscall"
	"time"
)

// The host reference.
//
// The hosts this benchmark runs on are shared: the same request takes a
// quarter more CPU time for seconds or minutes on end when a neighbour is
// busy, and no run is long enough to average that out. What slows the engine
// down then is the memory system (allocation, collection, fresh pages), not
// arithmetic, so a loop over registers or a few MiB does not notice it. The
// reference is therefore a small job of the engine's own kind, written here
// against the standard library alone so that no change to the engine can move
// it: connected components by label propagation over rows held as slices,
// keyed by strings in maps, with fresh allocations every iteration, followed
// by first touches of fresh pages. The load generator runs it between slices
// of requests, while the server is idle, and every time the benchmark reports
// is divided by how much slower than hostRefNominalMS the reference ran at
// the same moment.

// hostRefNominalMS is the reference's time on the host all reported times are
// scaled to. It is a unit, not a measurement: changing it rescales every time
// metric of every commit alike.
const hostRefNominalMS = 20.0

type refEdge struct{ src, dst int64 }

// refEdges is the reference's input: 8000 pseudo-random edges over 2000
// vertices, in both directions, the same in every process.
var refEdges = func() []refEdge {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	e := make([]refEdge, 0, 16000)
	for i := 0; i < 8000; i++ {
		a, b := int64(next()%2000), int64(next()%2000)
		e = append(e, refEdge{a, b}, refEdge{b, a})
	}
	return e
}()

// refFreshPages is how many bytes of fresh anonymous memory the reference
// maps, touches page by page and unmaps again, twice.
const refFreshPages = 4 << 20

// refComponentsResult is what refComponents returns: 6 iterations and 2000
// labelled vertices. A test holds it there.
const refComponentsResult = 2006

// refComponents labels every vertex of refEdges with the smallest vertex it
// is connected to and returns the number of iterations plus the number of
// labelled vertices, so the work cannot be optimised away and a test can
// hold it fixed.
func refComponents() int {
	type row []int64
	key := func(v int64) string { return strconv.FormatInt(v, 10) }
	adj := map[string][]row{}
	for _, e := range refEdges {
		k := key(e.src)
		adj[k] = append(adj[k], row{e.src, e.dst})
	}
	label := map[string]int64{}
	delta := make([]row, 0, len(refEdges))
	for _, e := range refEdges {
		k := key(e.src)
		if _, ok := label[k]; !ok {
			label[k] = e.src
			delta = append(delta, row{e.src, e.src})
		}
	}
	iterations := 0
	for len(delta) > 0 {
		iterations++
		var next []row
		for _, d := range delta {
			for _, e := range adj[key(d[0])] {
				k := key(e[1])
				if cur, ok := label[k]; !ok || d[1] < cur {
					label[k] = d[1]
					next = append(next, row{e[1], d[1]})
				}
			}
		}
		delta = next
	}
	return iterations + len(label)
}

// refTouchPages maps refFreshPages of anonymous memory, writes one byte to
// every page and unmaps it.
func refTouchPages() int {
	m, err := syscall.Mmap(-1, 0, refFreshPages, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0
	}
	for i := 0; i < len(m); i += 4096 {
		m[i] = 1
	}
	n := int(m[len(m)-4096])
	_ = syscall.Munmap(m)
	return n
}

// hostRef runs the reference once and returns how long it took, in
// milliseconds.
func hostRef() float64 {
	start := time.Now()
	kernelSink += refComponents()
	kernelSink += refTouchPages()
	kernelSink += refTouchPages()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// hostSpeed turns reference times into the factor measured times are divided
// by: how many times slower than nominal the host ran, by the median of the
// samples.
func hostSpeed(refMS []float64) float64 {
	return median(refMS) / hostRefNominalMS
}
