package fixpoint

import (
	"testing"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/queries"
)

func chaosCluster(chaos cluster.ChaosConfig) *cluster.QueryContext {
	return cluster.New(cluster.Config{
		Workers: 4, Partitions: 4,
		CompressBroadcast: true, Chaos: chaos,
	}).NewQuery(nil)
}

// chaosRunner names one distributed evaluation mode and how to invoke it.
type chaosRunner struct {
	name string
	// mergeStage is the stage whose tasks merge into cached state (where a
	// post-merge fault forces a checkpoint rollback); empty when the mode
	// has no mutable cached state to roll back.
	mergeStage string
	run        func(t *testing.T, src string, cat *catalog.Catalog, c *cluster.QueryContext) *Result
}

func chaosRunners() []chaosRunner {
	return []chaosRunner{
		{"dsn-two-stage", "fixpoint.reduce", func(t *testing.T, src string, cat *catalog.Catalog, c *cluster.QueryContext) *Result {
			t.Helper()
			r, err := Distributed(analyzeQ(t, src, cat).Clique, exec.NewContext(), c, DistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"dsn-combined", "fixpoint.shufflemap", func(t *testing.T, src string, cat *catalog.Catalog, c *cluster.QueryContext) *Result {
			t.Helper()
			r, err := Distributed(analyzeQ(t, src, cat).Clique, exec.NewContext(), c, DistOptions{StageCombination: true})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"dsn-decomposed", "fixpoint.decomposed", func(t *testing.T, src string, cat *catalog.Catalog, c *cluster.QueryContext) *Result {
			t.Helper()
			r, err := Distributed(analyzeQ(t, src, cat).Clique, exec.NewContext(), c, DistOptions{StageCombination: true})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"sql-sn", "fixpoint.reduce", func(t *testing.T, src string, cat *catalog.Catalog, c *cluster.QueryContext) *Result {
			t.Helper()
			r, err := DistributedSQLSN(analyzeQ(t, src, cat).Clique, exec.NewContext(), c, DistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		// sql-naive rebuilds its whole state from the shuffle every
		// iteration (immutable SQL results), so recovery is plain replay:
		// retries happen, but there is no cached partition to roll back.
		{"sql-naive", "", func(t *testing.T, src string, cat *catalog.Catalog, c *cluster.QueryContext) *Result {
			t.Helper()
			r, err := DistributedSQLNaive(analyzeQ(t, src, cat).Clique, exec.NewContext(), c, DistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
}

// workloadFor pairs each mode with a query that exercises it (decomposed
// needs a plan that carries its partition key).
func chaosWorkload(mode string) (src, view string, cat func() *catalog.Catalog) {
	if mode == "dsn-decomposed" {
		edges := gen.Unweighted(gen.RMATDefault(64, gen.Rng(5)))
		return queries.TC, "tc", func() *catalog.Catalog { return testCatalog(edges) }
	}
	edges := gen.RMATDefault(128, gen.Rng(77))
	return queries.SSSP, "path", func() *catalog.Catalog { return testCatalog(edges) }
}

// Acceptance: at least one schedule per evaluation mode demonstrably
// triggers a task retry AND an iteration rollback, proven by the counters,
// and the recovered result is identical to the fault-free run.
func TestChaosScheduleTriggersRetryAndRollbackPerMode(t *testing.T) {
	for _, m := range chaosRunners() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			src, view, cat := chaosWorkload(m.name)
			want := m.run(t, src, cat(), chaosCluster(cluster.ChaosConfig{}))

			stage := m.mergeStage
			kind := cluster.FaultPostMerge
			if stage == "" {
				// No cached state: script the fault at the shuffle-fetch
				// boundary of the rebuild stage instead.
				stage, kind = "sqlnaive.reduce", cluster.FaultFetch
			}
			// Occurrence -1: kill partition 1's first attempt every time the
			// stage runs, so the schedule fires regardless of how many
			// passes the mode needs.
			cl := chaosCluster(cluster.ChaosConfig{Schedule: []cluster.ChaosEvent{
				{Stage: stage, Occurrence: -1, Part: 1, Attempt: 0, Kind: kind},
			}})
			got := m.run(t, src, cat(), cl)

			s := cl.Metrics.Snapshot()
			if s.TaskRetries == 0 {
				t.Fatalf("scheduled fault on %s never caused a retry: %s", stage, s)
			}
			if m.mergeStage != "" && s.RecoveredIterations == 0 {
				t.Fatalf("post-merge fault on %s never rolled a partition back: %s", stage, s)
			}
			if s.RowsReplayed == 0 {
				t.Errorf("retries re-fetched no rows: %s", s)
			}
			if !got.Relations[view].EqualAsSet(want.Relations[view]) {
				t.Errorf("recovered result diverged from fault-free run (%d vs %d rows)",
					got.Relations[view].Len(), want.Relations[view].Len())
			}
		})
	}
}

// Every fault kind — including worker loss (broadcast cache invalidation)
// and stragglers — must leave results untouched.
func TestChaosEveryFaultKindIsInvariant(t *testing.T) {
	edges := gen.RMATDefault(128, gen.Rng(77))
	cat := func() *catalog.Catalog { return testCatalog(edges) }
	want := func() *Result {
		r, err := Distributed(analyzeQ(t, queries.SSSP, cat()).Clique, exec.NewContext(),
			chaosCluster(cluster.ChaosConfig{}), DistOptions{StageCombination: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()

	for _, kind := range []cluster.FaultKind{
		cluster.FaultTaskStart, cluster.FaultWorkerLoss, cluster.FaultFetch,
		cluster.FaultPostMerge, cluster.FaultStraggler,
	} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cl := chaosCluster(cluster.ChaosConfig{Schedule: []cluster.ChaosEvent{
				{Stage: "fixpoint.shufflemap", Occurrence: -1, Part: 0, Attempt: 0, Kind: kind},
			}})
			got, err := Distributed(analyzeQ(t, queries.SSSP, cat()).Clique, exec.NewContext(), cl,
				DistOptions{StageCombination: true})
			if err != nil {
				t.Fatal(err)
			}
			s := cl.Metrics.Snapshot()
			if kind == cluster.FaultStraggler {
				if s.TaskRetries != 0 {
					t.Errorf("stragglers must not kill attempts: %s", s)
				}
			} else if s.TaskRetries == 0 {
				t.Fatalf("fault %s never fired: %s", kind, s)
			}
			if !got.Relations["path"].EqualAsSet(want.Relations["path"]) {
				t.Errorf("fault %s diverged from fault-free run", kind)
			}
		})
	}
}

// Randomized-but-seeded chaos: same seed, same faults, same counters — and
// any seed converges to the fault-free result. RebuildJoinState exercises
// broadcast re-registration under chaos every iteration.
func TestChaosSeededRateIsDeterministicAndInvariant(t *testing.T) {
	edges := gen.RMATDefault(128, gen.Rng(77))
	cat := func() *catalog.Catalog { return testCatalog(edges) }
	want := func() *Result {
		r, err := Distributed(analyzeQ(t, queries.SSSP, cat()).Clique, exec.NewContext(),
			chaosCluster(cluster.ChaosConfig{}), DistOptions{StageCombination: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()

	for _, seed := range []int64{1, 2, 3} {
		var prev cluster.Snapshot
		for rep := 0; rep < 2; rep++ {
			cl := chaosCluster(cluster.ChaosConfig{Seed: seed, Rate: 0.08})
			got, err := Distributed(analyzeQ(t, queries.SSSP, cat()).Clique, exec.NewContext(), cl,
				DistOptions{StageCombination: true})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Relations["path"].EqualAsSet(want.Relations["path"]) {
				t.Errorf("seed %d rep %d diverged from fault-free run", seed, rep)
			}
			s := cl.Metrics.Snapshot()
			if rep == 1 && s.TaskRetries != prev.TaskRetries {
				t.Errorf("seed %d: fault schedule not deterministic (%d vs %d retries)",
					seed, prev.TaskRetries, s.TaskRetries)
			}
			prev = s
		}
	}
}
