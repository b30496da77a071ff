// Package gap reimplements the single-machine baselines of the paper's
// Figure 9 / Table 3 comparison — the GAP Benchmark Suite style serial
// algorithms (and a parallel CC variant) on a CSR graph: BFS reachability,
// label-propagation connected components, and queue-based Bellman-Ford
// shortest paths.
package gap

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"github.com/rasql/rasql-go/internal/relation"
)

// CSR is a compressed sparse row adjacency representation with remapped
// dense vertex ids.
type CSR struct {
	// IDs maps dense index -> original vertex id.
	IDs []int64
	// ofs/dst/wt are the CSR arrays.
	ofs []int32
	dst []int32
	wt  []float64
	// index maps original id -> dense index.
	index map[int64]int32
}

// NewCSR builds a CSR graph from an edge relation (weighted or not).
func NewCSR(edges *relation.Relation) *CSR {
	weighted := edges.Schema.Len() >= 3
	g := &CSR{index: map[int64]int32{}}
	id := func(v int64) int32 {
		if i, ok := g.index[v]; ok {
			return i
		}
		i := int32(len(g.IDs))
		g.index[v] = i
		g.IDs = append(g.IDs, v)
		return i
	}
	type e struct {
		s, d int32
		w    float64
	}
	es := make([]e, 0, len(edges.Rows))
	for _, r := range edges.Rows {
		w := 1.0
		if weighted {
			w = r[2].AsFloat()
		}
		es = append(es, e{s: id(r[0].AsInt()), d: id(r[1].AsInt()), w: w})
	}
	n := len(g.IDs)
	sort.Slice(es, func(i, j int) bool { return es[i].s < es[j].s })
	g.ofs = make([]int32, n+1)
	g.dst = make([]int32, len(es))
	g.wt = make([]float64, len(es))
	for i, ed := range es {
		g.dst[i] = ed.d
		g.wt[i] = ed.w
		g.ofs[ed.s+1]++
	}
	for i := 0; i < n; i++ {
		g.ofs[i+1] += g.ofs[i]
	}
	return g
}

// BFS returns the original ids of all vertices reachable from source
// (including the source itself, if present).
func (g *CSR) BFS(source int64) []int64 {
	s, ok := g.index[source]
	if !ok {
		return nil
	}
	seen := make([]bool, len(g.IDs))
	seen[s] = true
	queue := []int32{s}
	out := []int64{g.IDs[s]}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := g.ofs[v]; i < g.ofs[v+1]; i++ {
			d := g.dst[i]
			if !seen[d] {
				seen[d] = true
				out = append(out, g.IDs[d])
				queue = append(queue, d)
			}
		}
	}
	return out
}

// CC runs serial label propagation until a fixpoint, returning each
// vertex's component label (the minimum original id in its component,
// assuming a symmetrized graph).
func (g *CSR) CC() map[int64]int64 {
	n := len(g.IDs)
	label := make([]int64, n)
	for i := range label {
		label[i] = g.IDs[i]
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			l := label[v]
			for i := g.ofs[v]; i < g.ofs[v+1]; i++ {
				if label[g.dst[i]] > l {
					label[g.dst[i]] = l
					changed = true
				}
			}
		}
	}
	out := make(map[int64]int64, n)
	for i, l := range label {
		out[g.IDs[i]] = l
	}
	return out
}

// CCParallel is the GAP-parallel analog: synchronous label propagation
// with the vertex range split across workers (default GOMAXPROCS).
func (g *CSR) CCParallel(workers int) map[int64]int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(g.IDs)
	label := make([]int64, n)
	next := make([]int64, n)
	for i := range label {
		label[i] = g.IDs[i]
		next[i] = label[i]
	}
	for {
		// Pull phase: every vertex takes the min of its in-labels; with a
		// symmetrized graph, pulling over out-edges is equivalent.
		var wg sync.WaitGroup
		changed := make([]bool, workers)
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				for v := lo; v < hi; v++ {
					l := label[v]
					for i := g.ofs[v]; i < g.ofs[v+1]; i++ {
						if dl := label[g.dst[i]]; dl < l {
							l = dl
						}
					}
					next[v] = l
					if l != label[v] {
						changed[w] = true
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		label, next = next, label
		any := false
		for _, c := range changed {
			any = any || c
		}
		if !any {
			break
		}
	}
	out := make(map[int64]int64, n)
	for i, l := range label {
		out[g.IDs[i]] = l
	}
	return out
}

// SSSP runs queue-based Bellman-Ford from the source, returning distances
// by original id for all reachable vertices.
func (g *CSR) SSSP(source int64) map[int64]float64 {
	s, ok := g.index[source]
	if !ok {
		return nil
	}
	n := len(g.IDs)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	inQueue := make([]bool, n)
	queue := []int32{s}
	inQueue[s] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		dv := dist[v]
		for i := g.ofs[v]; i < g.ofs[v+1]; i++ {
			d := g.dst[i]
			if nd := dv + g.wt[i]; nd < dist[d] {
				dist[d] = nd
				if !inQueue[d] {
					inQueue[d] = true
					queue = append(queue, d)
				}
			}
		}
	}
	out := make(map[int64]float64, n)
	for i, dv := range dist {
		if !math.IsInf(dv, 1) {
			out[g.IDs[i]] = dv
		}
	}
	return out
}
