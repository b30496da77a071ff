// Package pregel is a vertex-centric BSP graph engine in the style of
// Google's Pregel, running on the same simulated cluster as the RaSQL
// fixpoint operator. It provides the comparator systems of the paper's
// Section 8 experiments:
//
//   - ProfileGiraph models Apache Giraph: message combiners and a single
//     synchronized stage per superstep (the paper credits Giraph's relative
//     speed to this tight execution).
//   - ProfileGraphX models GraphX's vertex-centric layer on raw RDDs: each
//     superstep splits into four ShuffleMap stages with materialized
//     intermediates and loses operator combination — the inefficiencies the
//     paper identifies when explaining why GraphX trails RaSQL by 4-8x.
//
// The REACH, CC and SSSP programs are the min-propagation algorithms these
// systems ship as library code.
package pregel

import (
	"fmt"
	"math"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

// Profile selects the comparator system being modeled.
type Profile uint8

// The profiles.
const (
	ProfileGiraph Profile = iota
	ProfileGraphX
)

// String names the profile.
func (p Profile) String() string {
	if p == ProfileGraphX {
		return "graphx"
	}
	return "giraph"
}

// Algorithm selects the vertex program.
type Algorithm uint8

// The built-in vertex programs.
const (
	// Reach marks vertices reachable from the source (BFS).
	Reach Algorithm = iota
	// CC propagates minimum component labels.
	CC
	// SSSP relaxes shortest-path distances from the source.
	SSSP
	// MaxProp propagates maximum values along edges (the vertex-centric
	// form of the BOM Delivery query: leaves carry days, edges point
	// sub-part → part).
	MaxProp
	// SumUp accumulates sums towards parents (the vertex-centric
	// Management/MLM pattern: each vertex adds incoming contributions
	// and forwards them, scaled by Options.Factor, along its out-edges).
	SumUp
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case CC:
		return "cc"
	case SSSP:
		return "sssp"
	case MaxProp:
		return "maxprop"
	case SumUp:
		return "sumup"
	default:
		return "reach"
	}
}

// Options configures a run.
type Options struct {
	Profile Profile
	// Source is the source vertex for Reach and SSSP.
	Source int64
	// MaxSupersteps bounds the loop (default 100000).
	MaxSupersteps int
	// Factor scales forwarded contributions for SumUp (default 1; the
	// MLM bonus query uses 0.5).
	Factor float64
	// InitValues seeds per-vertex initial values for MaxProp and SumUp
	// (e.g. leaf delivery days, per-member sales). Vertices without an
	// entry start at the mode's identity.
	InitValues map[int64]float64
}

func (o Options) maxSteps() int {
	if o.MaxSupersteps <= 0 {
		return 100000
	}
	return o.MaxSupersteps
}

// graph is the partitioned CSR representation.
type graph struct {
	parts int
	// vids[p] lists the vertex ids of partition p.
	vids [][]int64
	// index[p] maps vid -> local index.
	index []map[int64]int
	// adj[p][local] lists (dst, weight) out-edges.
	adj [][][]edge
}

type edge struct {
	dst int64
	w   float64
}

func partOf(v int64, parts int) int {
	h := uint64(v) * 0x9e3779b97f4a7c15
	return int(h % uint64(parts))
}

func buildGraph(c *cluster.QueryContext, edges *relation.Relation) *graph {
	parts := c.Partitions()
	g := &graph{parts: parts,
		vids:  make([][]int64, parts),
		index: make([]map[int64]int, parts),
		adj:   make([][][]edge, parts),
	}
	for p := 0; p < parts; p++ {
		g.index[p] = map[int64]int{}
	}
	weighted := edges.Schema.Len() >= 3
	add := func(v int64) int {
		p := partOf(v, g.parts)
		if i, ok := g.index[p][v]; ok {
			return i
		}
		i := len(g.vids[p])
		g.index[p][v] = i
		g.vids[p] = append(g.vids[p], v)
		g.adj[p] = append(g.adj[p], nil)
		return i
	}
	for _, r := range edges.Rows {
		src, dst := r[0].AsInt(), r[1].AsInt()
		w := 1.0
		if weighted {
			w = r[2].AsFloat()
		}
		si := add(src)
		add(dst)
		p := partOf(src, g.parts)
		g.adj[p][si] = append(g.adj[p][si], edge{dst: dst, w: w})
	}
	return g
}

// Run executes the algorithm and returns the result relation —
// (Dst) rows for Reach, (Src, CmpId) for CC, (Dst, Cost) for SSSP — plus
// the superstep count.
func Run(c *cluster.QueryContext, edges *relation.Relation, alg Algorithm, opt Options) (*relation.Relation, int, error) {
	g := buildGraph(c, edges)
	m := modeOf(alg)
	if opt.Factor == 0 {
		opt.Factor = 1
	}

	// Vertex values, per-superstep frontier, and the payload each active
	// vertex forwards (for SumUp the payload is the new contribution, not
	// the accumulated value).
	vals := make([][]float64, g.parts)
	pend := make([][]float64, g.parts)
	active := make([][]bool, g.parts)
	for p := 0; p < g.parts; p++ {
		vals[p] = make([]float64, len(g.vids[p]))
		pend[p] = make([]float64, len(g.vids[p]))
		active[p] = make([]bool, len(g.vids[p]))
		for i, v := range g.vids[p] {
			switch alg {
			case CC:
				vals[p][i] = float64(v)
				pend[p][i] = vals[p][i]
				active[p][i] = true
			case MaxProp, SumUp:
				init, ok := opt.InitValues[v]
				if !ok {
					vals[p][i] = m.identity
					continue
				}
				vals[p][i] = init
				pend[p][i] = init
				active[p][i] = true
			default:
				vals[p][i] = math.Inf(1)
				if v == opt.Source {
					vals[p][i] = 0
					active[p][i] = true
				}
			}
		}
	}

	// edgeVal computes the message sent along an out-edge from the
	// forwarded payload.
	edgeVal := func(payload float64, e edge) float64 {
		switch alg {
		case SSSP:
			return payload + e.w
		case SumUp:
			return payload * opt.Factor
		default:
			return payload
		}
	}

	steps := 0
	anyActive := func() bool {
		for p := range active {
			for _, a := range active[p] {
				if a {
					return true
				}
			}
		}
		return false
	}

	for anyActive() {
		steps++
		if steps > opt.maxSteps() {
			return nil, steps, fmt.Errorf("pregel: no convergence after %d supersteps", steps)
		}
		var out [][]types.Row
		if opt.Profile == ProfileGraphX {
			out = superstepGraphX(c, g, pend, active, edgeVal, m)
		} else {
			out = superstepGiraph(c, g, pend, active, edgeVal, m)
		}
		// Shuffle messages to vertex partitions and apply them. out is
		// indexed by producer partition; rows route by destination vertex.
		sh := c.NewShuffle(g.parts)
		for producer, rows := range out {
			buckets := make([][]types.Row, g.parts)
			for _, r := range rows {
				t := partOf(r[0].AsInt(), g.parts)
				buckets[t] = append(buckets[t], r)
			}
			sh.Add(buckets, c.DefaultOwner(producer))
		}
		applyTasks := make([]cluster.Task, g.parts)
		for i := range applyTasks {
			p := i
			applyTasks[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
				msgs := sh.FetchTarget(p, w)
				for li := range active[p] {
					active[p][li] = false
				}
				// Combine incoming messages per local vertex first.
				inbox := map[int]float64{}
				for _, msg := range msgs {
					li, ok := g.index[p][msg[0].AsInt()]
					if !ok {
						continue
					}
					v := msg[1].AsFloat()
					if cur, seen := inbox[li]; seen {
						inbox[li] = m.combine(cur, v)
					} else {
						inbox[li] = v
					}
				}
				for li, v := range inbox {
					if m.additive {
						if v == 0 {
							continue
						}
						vals[p][li] += v
						pend[p][li] = v
						active[p][li] = true
						continue
					}
					if m.improves(v, vals[p][li]) {
						vals[p][li] = v
						pend[p][li] = v
						active[p][li] = true
					}
				}
			}}
		}
		c.RunStage("pregel.apply", applyTasks)
	}

	return result(g, vals, alg), steps, nil
}

// mode captures the message algebra of an algorithm.
type mode struct {
	combine  func(a, b float64) float64
	improves func(nu, cur float64) bool
	additive bool
	identity float64
}

func modeOf(alg Algorithm) mode {
	switch alg {
	case MaxProp:
		return mode{
			combine:  math.Max,
			improves: func(nu, cur float64) bool { return nu > cur },
			identity: math.Inf(-1),
		}
	case SumUp:
		return mode{
			combine:  func(a, b float64) float64 { return a + b },
			additive: true,
		}
	default:
		return mode{
			combine:  math.Min,
			improves: func(nu, cur float64) bool { return nu < cur },
			identity: math.Inf(1),
		}
	}
}

// superstepGiraph produces messages in one stage with a per-partition
// combiner: one min-message per destination vertex.
func superstepGiraph(c *cluster.QueryContext, g *graph, pend [][]float64, active [][]bool, edgeVal func(float64, edge) float64, m mode) [][]types.Row {
	out := make([][]types.Row, g.parts)
	tasks := make([]cluster.Task, g.parts)
	for i := range tasks {
		p := i
		tasks[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
			// Each sendMessage boxes a message object (Giraph's Writable
			// per call) before the combiner reduces them — the combiner
			// cuts shuffle volume, not per-edge object creation. All of
			// it happens inside this single superstep stage; GraphX does
			// the same work split across four materialized stages.
			var msgs []types.Row
			for li, isActive := range active[p] {
				if !isActive {
					continue
				}
				payload := pend[p][li]
				for _, e := range g.adj[p][li] {
					msgs = append(msgs, types.Row{types.Int(e.dst), types.Float(edgeVal(payload, e))})
				}
			}
			combined := map[int64]int{}
			rows := make([]types.Row, 0, len(msgs)/2+1)
			for _, msg := range msgs {
				dst := msg[0].AsInt()
				if i, ok := combined[dst]; ok {
					rows[i][1] = types.Float(m.combine(rows[i][1].AsFloat(), msg[1].AsFloat()))
					continue
				}
				combined[dst] = len(rows)
				rows = append(rows, msg)
			}
			out[p] = rows
		}}
	}
	c.RunStage("giraph.superstep", tasks)
	return out
}

// superstepGraphX reproduces GraphX's four-stage superstep: (1) materialize
// the active vertex view, (2) join vertex values into edge triplets,
// (3) run sendMsg over the triplets, (4) reduce messages — each a separate
// stage with materialized intermediates and per-task scheduling cost, and
// no cross-operator fusion.
func superstepGraphX(c *cluster.QueryContext, g *graph, vals [][]float64, active [][]bool, edgeVal func(float64, edge) float64, m mode) [][]types.Row {
	parts := g.parts
	// Stage 1: materialize the active vertex view.
	activeView := make([][][2]float64, parts) // (localIdx, value) pairs
	stage1 := make([]cluster.Task, parts)
	for i := range stage1 {
		p := i
		stage1[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
			var view [][2]float64
			for li, isActive := range active[p] {
				if isActive {
					view = append(view, [2]float64{float64(li), vals[p][li]})
				}
			}
			activeView[p] = view
		}}
	}
	c.RunStage("graphx.vertexview", stage1)

	// Stage 2: build edge triplets for active sources (materialized).
	type triplet struct {
		dst int64
		val float64
		w   float64
	}
	triplets := make([][]triplet, parts)
	stage2 := make([]cluster.Task, parts)
	for i := range stage2 {
		p := i
		stage2[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
			var ts []triplet
			for _, lv := range activeView[p] {
				li := int(lv[0])
				for _, e := range g.adj[p][li] {
					ts = append(ts, triplet{dst: e.dst, val: lv[1], w: e.w})
				}
			}
			triplets[p] = ts
		}}
	}
	c.RunStage("graphx.triplets", stage2)

	// Stage 3: sendMsg over triplets (materialized message list, no
	// combiner yet). Being a separate ShuffleMap stage, its output RDD is
	// materialized through the wire format before the reduce stage reads
	// it — the per-stage serialization cost whole-stage fusion avoids.
	msgs := make([][]types.Row, parts)
	stage3 := make([]cluster.Task, parts)
	for i := range stage3 {
		p := i
		stage3[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
			rows := make([]types.Row, 0, len(triplets[p]))
			for _, t := range triplets[p] {
				rows = append(rows, types.Row{types.Int(t.dst), types.Float(edgeVal(t.val, edge{dst: t.dst, w: t.w}))})
			}
			decoded, err := types.DecodeRows(types.EncodeRows(rows))
			if err != nil {
				panic("pregel: stage materialization corruption: " + err.Error())
			}
			msgs[p] = decoded
		}}
	}
	c.RunStage("graphx.sendmsg", stage3)

	// Stage 4: local message reduce before the shuffle.
	out := make([][]types.Row, parts)
	stage4 := make([]cluster.Task, parts)
	for i := range stage4 {
		p := i
		stage4[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
			combined := map[int64]float64{}
			for _, msg := range msgs[p] {
				dst, v := msg[0].AsInt(), msg[1].AsFloat()
				if cur, ok := combined[dst]; ok {
					combined[dst] = m.combine(cur, v)
				} else {
					combined[dst] = v
				}
			}
			rows := make([]types.Row, 0, len(combined))
			for dst, msg := range combined {
				rows = append(rows, types.Row{types.Int(dst), types.Float(msg)})
			}
			out[p] = rows
		}}
	}
	c.RunStage("graphx.reduce", stage4)
	return out
}

func result(g *graph, vals [][]float64, alg Algorithm) *relation.Relation {
	var rel *relation.Relation
	switch alg {
	case Reach:
		rel = relation.New("reach", types.NewSchema(types.Col("Dst", types.KindInt)))
	case CC:
		rel = relation.New("cc", types.NewSchema(
			types.Col("Src", types.KindInt), types.Col("CmpId", types.KindInt)))
	case MaxProp, SumUp:
		rel = relation.New(alg.String(), types.NewSchema(
			types.Col("Node", types.KindInt), types.Col("Value", types.KindFloat)))
	default:
		rel = relation.New("path", types.NewSchema(
			types.Col("Dst", types.KindInt), types.Col("Cost", types.KindFloat)))
	}
	for p := 0; p < g.parts; p++ {
		for li, v := range g.vids[p] {
			val := vals[p][li]
			switch alg {
			case Reach:
				if !math.IsInf(val, 1) {
					rel.Append(types.Row{types.Int(v)})
				}
			case CC:
				rel.Append(types.Row{types.Int(v), types.Int(int64(val))})
			case MaxProp, SumUp:
				if !math.IsInf(val, -1) {
					rel.Append(types.Row{types.Int(v), types.Float(val)})
				}
			default:
				if !math.IsInf(val, 1) {
					rel.Append(types.Row{types.Int(v), types.Float(val)})
				}
			}
		}
	}
	return rel
}
