package fixpoint

import (
	"context"
	"errors"
	"testing"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

type distRunner func(*analyze.Clique, *exec.Context, *cluster.QueryContext, DistOptions) (*Result, error)

// driverRunners names every distributed runner: the four BSP layouts, the
// two SQL-loop baselines and the relaxed router under SSP(2) and async.
var driverRunners = []struct {
	name string
	bsp  bool
	run  distRunner
	opt  DistOptions
}{
	{"two-stage", true, Distributed, DistOptions{DisableDecomposition: true}},
	{"combined", true, Distributed, DistOptions{StageCombination: true, DisableDecomposition: true}},
	{"decomposed", true, Distributed, DistOptions{StageCombination: true}},
	{"sql-sn", true, DistributedSQLSN, DistOptions{}},
	{"sql-naive", true, DistributedSQLNaive, DistOptions{}},
	{"ssp:2", false, Distributed, DistOptions{Mode: ModeSSP, Staleness: 2}},
	{"async", false, Distributed, DistOptions{Mode: ModeAsync}},
}

// chainEdges is a path 0 → 1 → … → n: its closure needs n iterations, and
// the last non-empty delta (the one path from 0 to n) derives nothing.
func chainEdges(n int64) *relation.Relation {
	edges := relation.New("edge", gen.PlainEdgeSchema())
	for i := int64(0); i < n; i++ {
		edges.Append(types.Row{types.Int(i), types.Int(i + 1)})
	}
	return edges
}

// TestRunnersAgreeOnIterations: every distributed runner reports one
// iteration count three ways — Result.Iterations, the cluster's Iterations
// counter and the number of its last traced iteration event — and every BSP
// runner's count is the local oracle's.
func TestRunnersAgreeOnIterations(t *testing.T) {
	rmat := gen.RMATDefault(128, gen.Rng(21))
	tree := gen.NewTree(4, 2, 3, 0.3, 0, gen.Rng(17))
	assbl, basic := tree.AssblBasic(30, gen.Rng(3))
	sales, sponsor := tree.SalesSponsor(50, gen.Rng(4))
	cases := []struct {
		name, src string
		cat       *catalog.Catalog
	}{
		{"Delivery", queries.Delivery, testCatalog(assbl, basic)},
		{"Management", queries.Management, testCatalog(tree.Report())},
		{"MLM", queries.MLM, testCatalog(sales, sponsor)},
		{"TC-chain", queries.TC, testCatalog(chainEdges(30))},
		{"REACH", queries.Reach, testCatalog(gen.Unweighted(rmat))},
		{"SSSP", queries.SSSP, testCatalog(rmat)},
		{"CC", queries.CCLabels, testCatalog(gen.Symmetrized(gen.Unweighted(rmat)))},
	}
	for _, tc := range cases {
		local, err := Local(analyzeQ(t, tc.src, tc.cat).Clique, exec.NewContext(), Options{})
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, r := range driverRunners {
			tr := trace.NewIterationsOnly()
			c := testCluster()
			opt := r.opt
			opt.Tracer = tr
			res, err := r.run(analyzeQ(t, tc.src, tc.cat).Clique, exec.NewContext(), c, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, r.name, err)
			}
			events := tr.Iterations()
			if len(events) == 0 {
				t.Fatalf("%s/%s: no iteration events", tc.name, r.name)
			}
			last := events[len(events)-1].Iter
			counted := int(c.Metrics.Snapshot().Iterations)
			if res.Iterations != counted || res.Iterations != last {
				t.Errorf("%s/%s: Result.Iterations %d, Metrics.Iterations %d, last traced iteration %d",
					tc.name, r.name, res.Iterations, counted, last)
			}
			if r.bsp && res.Iterations != local.Iterations {
				t.Errorf("%s/%s: %d iterations, local oracle %d", tc.name, r.name, res.Iterations, local.Iterations)
			}
		}
	}
}

// TestRunnersShareOneGuard: every runner stops on a cancelled context with
// ErrCancelled, on its first iteration past MaxIterations with an
// ErrNonTermination naming that iteration — the bound the local oracle
// applies — and on a relation past MaxRows. A failed run still counts the
// iterations it reached.
func TestRunnersShareOneGuard(t *testing.T) {
	cat := testCatalog(chainEdges(12))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range driverRunners {
		opt := r.opt
		opt.Context = cancelled
		_, err := r.run(analyzeQ(t, queries.TC, cat).Clique, exec.NewContext(), testCluster(), opt)
		var ec *ErrCancelled
		if !errors.As(err, &ec) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled context: err = %v, want ErrCancelled", r.name, err)
		}

		opt = r.opt
		opt.MaxIterations = 5
		c := testCluster()
		_, err = r.run(analyzeQ(t, queries.TC, cat).Clique, exec.NewContext(), c, opt)
		counted := int(c.Metrics.Snapshot().Iterations)
		var nt *ErrNonTermination
		if !errors.As(err, &nt) {
			t.Errorf("%s: MaxIterations 5 on a 12-edge chain: err = %v, want ErrNonTermination", r.name, err)
		} else if r.bsp && (nt.Iterations != 6 || counted != 6) {
			t.Errorf("%s: stopped at iteration %d and counted %d, want 6 and 6", r.name, nt.Iterations, counted)
		} else if counted == 0 {
			t.Errorf("%s: a run stopped by MaxIterations counted no iterations", r.name)
		}

		// Twenty disjoint edges are their own closure: the seed's merge is the
		// only growth, and no relaxed round follows it, so the row bound
		// must be checked on what a merge grew.
		pairs := relation.New("edge", gen.PlainEdgeSchema())
		for i := int64(0); i < 20; i++ {
			pairs.Append(types.Row{types.Int(i), types.Int(100 + i)})
		}
		opt = r.opt
		opt.MaxRows = 10
		if _, err := r.run(analyzeQ(t, queries.TC, testCatalog(pairs)).Clique, exec.NewContext(), testCluster(), opt); !errors.As(err, &nt) {
			t.Errorf("%s: MaxRows 10 on a 20-row closure: err = %v, want ErrNonTermination", r.name, err)
		}

		// A bound equal to the iterations the fixpoint needs must pass. Relaxed
		// rounds are not BSP iterations, so only BSP runners are held to it.
		if !r.bsp {
			continue
		}
		opt = r.opt
		opt.MaxIterations = 12
		if _, err := r.run(analyzeQ(t, queries.TC, cat).Clique, exec.NewContext(), testCluster(), opt); err != nil {
			t.Errorf("%s: MaxIterations 12 on a 12-edge chain: %v", r.name, err)
		}
	}
}
