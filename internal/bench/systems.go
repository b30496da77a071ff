package bench

import (
	"fmt"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/gap"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/pregel"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/types"
)

// runSystem times one (system, algorithm, graph) cell of Figures 8/9.
func (r *Runner) runSystem(sys, alg string, edges *relation.Relation) (time.Duration, error) {
	switch sys {
	case "rasql", "bigdatalog", "myria":
		cfg := engineConfig(sys, r.cfg.Workers, r.cfg.Partitions)
		r.curvePrefix = sys
		defer func() { r.curvePrefix = "" }()
		return r.runQuery(cfg, algQuery(alg), edges)
	case "graphx", "giraph":
		profile := pregel.ProfileGiraph
		if sys == "graphx" {
			profile = pregel.ProfileGraphX
		}
		palg := pregel.SSSP
		switch alg {
		case "CC":
			palg = pregel.CC
		case "REACH":
			palg = pregel.Reach
		}
		return r.timeSim(func() (cluster.Snapshot, error) {
			q := cluster.New(cluster.Config{Workers: r.cfg.Workers, Partitions: r.cfg.Partitions}).NewQuery(nil)
			_, _, err := pregel.Run(q, edges, palg, pregel.Options{Profile: profile, Source: 1})
			return q.Metrics.Snapshot(), err
		})
	case "gap":
		return r.timeIt(func() error {
			g := gap.NewCSR(edges)
			switch alg {
			case "CC":
				g.CC()
			case "REACH":
				g.BFS(1)
			default:
				g.SSSP(1)
			}
			return nil
		})
	case "gap-parallel":
		return r.timeIt(func() error {
			gap.NewCSR(edges).CCParallel(r.cfg.Workers)
			return nil
		})
	case "cost":
		// COST reads a pre-built binary graph; model it by excluding the
		// CSR build from the measured time.
		g := gap.NewCSR(edges)
		return r.timeIt(func() error {
			g.CC()
			return nil
		})
	default:
		return 0, fmt.Errorf("bench: unknown system %q", sys)
	}
}

// baselineFn is one of the fixpoint SQL-loop baselines.
type baselineFn func(*analyze.Clique, *exec.Context, *cluster.QueryContext, fixpoint.DistOptions) (*fixpoint.Result, error)

// runBaseline times a query through one of the iterative-SQL baselines;
// name labels its convergence curve ("sql-sn", "sql-naive").
func (r *Runner) runBaseline(name string, fn baselineFn, query string, tables ...*relation.Relation) (time.Duration, error) {
	var iters []rasql.TraceIteration
	d, err := r.timeSim(func() (cluster.Snapshot, error) {
		c := cluster.New(cluster.Config{Workers: r.cfg.Workers, Partitions: r.cfg.Partitions,
			Policy: cluster.PolicyHybrid}).NewQuery(rasql.NewIterationsTracer())
		cat := catalog.New()
		for _, t := range tables {
			if err := cat.Register(t); err != nil {
				return c.Metrics.Snapshot(), err
			}
		}
		stmts, err := parser.Parse(query)
		if err != nil {
			return c.Metrics.Snapshot(), err
		}
		if len(stmts) != 1 {
			return c.Metrics.Snapshot(), fmt.Errorf("bench: a baseline runs one statement, got %d", len(stmts))
		}
		prog, err := analyze.Statement(stmts[0], cat)
		if err != nil {
			return c.Metrics.Snapshot(), err
		}
		ctx := exec.NewContext()
		var opt fixpoint.DistOptions
		tr := c.Tracer
		opt.Tracer = tr
		res, err := fn(prog.Clique, ctx, c, opt)
		iters = tr.Iterations()
		if err != nil {
			return c.Metrics.Snapshot(), err
		}
		res.Bind(ctx)
		_, err = exec.Query(prog.Final, ctx)
		return c.Metrics.Snapshot(), err
	})
	if err == nil {
		prev := r.curvePrefix
		r.curvePrefix = name
		r.recordCurve(r.curveLabel(query, tables), iters)
		r.curvePrefix = prev
	}
	return d, err
}

// pregelSpec describes a vertex-centric Figure 10 workload for the GraphX
// comparator.
type pregelSpec struct {
	alg   pregel.Algorithm
	edges *relation.Relation
	opts  pregel.Options
}

// deliverySpec builds the vertex-centric BOM workload: sub-part → part
// edges, leaf days as initial values, max propagation.
func deliverySpec(tr *gen.Tree, basic *relation.Relation) pregelSpec {
	edges := relation.New("edge", gen.PlainEdgeSchema())
	for i := 1; i < tr.Len(); i++ {
		edges.Append(types.Row{types.Int(int64(i)), types.Int(int64(tr.Parent[i]))})
	}
	init := make(map[int64]float64, basic.Len())
	for _, row := range basic.Rows {
		init[row[0].AsInt()] = row[1].AsFloat()
	}
	return pregelSpec{alg: pregel.MaxProp, edges: edges, opts: pregel.Options{InitValues: init}}
}

// managementSpec builds the vertex-centric subordinate count: Emp → Mgr
// edges, everyone starting at 1, sums flowing up.
func managementSpec(tr *gen.Tree) pregelSpec {
	edges := relation.New("edge", gen.PlainEdgeSchema())
	init := make(map[int64]float64, tr.Len())
	for i := 1; i < tr.Len(); i++ {
		edges.Append(types.Row{types.Int(int64(i)), types.Int(int64(tr.Parent[i]))})
		init[int64(i)] = 1
	}
	return pregelSpec{alg: pregel.SumUp, edges: edges, opts: pregel.Options{InitValues: init}}
}

// mlmSpec builds the vertex-centric bonus computation: member → sponsor
// edges, initial bonuses P*0.1, halved per level.
func mlmSpec(tr *gen.Tree, sales *relation.Relation) pregelSpec {
	edges := relation.New("edge", gen.PlainEdgeSchema())
	for i := 1; i < tr.Len(); i++ {
		edges.Append(types.Row{types.Int(int64(i)), types.Int(int64(tr.Parent[i]))})
	}
	init := make(map[int64]float64, sales.Len())
	for _, row := range sales.Rows {
		init[row[0].AsInt()] = row[1].AsFloat() * 0.1
	}
	return pregelSpec{alg: pregel.SumUp, edges: edges, opts: pregel.Options{Factor: 0.5, InitValues: init}}
}

// runPregelSpec times a Figure 10 vertex-centric workload.
func (r *Runner) runPregelSpec(spec pregelSpec, graphx bool) (time.Duration, error) {
	opts := spec.opts
	if graphx {
		opts.Profile = pregel.ProfileGraphX
	}
	return r.timeSim(func() (cluster.Snapshot, error) {
		q := cluster.New(cluster.Config{Workers: r.cfg.Workers, Partitions: r.cfg.Partitions}).NewQuery(nil)
		_, _, err := pregel.Run(q, spec.edges, spec.alg, opts)
		return q.Metrics.Snapshot(), err
	})
}
