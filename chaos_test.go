package rasql_test

import (
	"testing"

	rasql "github.com/rasql/rasql-go"
)

// The fault-invariance differential harness — the headline chaos deliverable.
//
// RaSQL's recovery story (paper Section 6.1) rests on the fixpoint being
// confluent: the accumulated state is its own checkpoint, so a failed task
// can roll its partitions back and replay the iteration without changing the
// final answer. That makes the fault-free run a perfect oracle: every example
// query, under every evaluation mode, under any seeded fault schedule, must
// produce the exact same result set.

// chaosMode is one evaluation strategy under test.
type chaosMode struct {
	name string
	cfg  func() rasql.Config
	// distributed modes run cluster tasks, so injected faults must actually
	// fire (asserted via the recovery counters); the local baselines run no
	// cluster tasks and chaos must be a silent no-op.
	distributed bool
}

func chaosModes() []chaosMode {
	return []chaosMode{
		{"default", func() rasql.Config { return rasql.Config{} }, true},
		{"two-stage", func() rasql.Config {
			return rasql.Config{RawOptimizations: true,
				Cluster: rasql.ClusterConfig{CompressBroadcast: true}}
		}, true},
		{"no-decompose", func() rasql.Config {
			c := rasql.Config{}
			c.Fixpoint.DisableDecomposition = true
			return c
		}, true},
		{"local", func() rasql.Config { return rasql.Config{ForceLocal: true} }, false},
		{"naive", naiveConfig, false},
	}
}

func runWithChaos(t *testing.T, tc exampleCase, cfg rasql.Config) (*rasql.Relation, rasql.MetricsSnapshot) {
	t.Helper()
	cfg.Cluster.Workers = 4
	cfg.Cluster.Partitions = 4
	eng := rasql.New(cfg)
	for _, tab := range tc.tables() {
		eng.MustRegister(tab.Clone())
	}
	got, err := eng.Query(tc.query)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return got, eng.Metrics()
}

// Every example query, every mode, three fault seeds: results must be
// bit-identical (as a set) to the fault-free run, and across each
// distributed mode the schedules must demonstrably have fired — a harness
// whose faults never trigger proves nothing.
func TestChaosFaultInvarianceAllQueriesAllModes(t *testing.T) {
	for _, m := range chaosModes() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			var total rasql.MetricsSnapshot
			for _, tc := range exampleCases() {
				want, _ := runWithChaos(t, tc, m.cfg())
				for _, seed := range []int64{1, 2, 3} {
					cfg := m.cfg()
					cfg.Cluster.Chaos = rasql.ChaosConfig{Seed: seed, Rate: 0.05}
					got, metrics := runWithChaos(t, tc, cfg)
					if !got.EqualAsSet(want) {
						t.Errorf("%s seed %d: result diverged from fault-free run\n got: %v\nwant: %v",
							tc.name, seed, got.Sort(), want.Sort())
					}
					total = total.Add(metrics)
				}
			}
			if m.distributed {
				if total.TaskRetries == 0 {
					t.Errorf("no injected fault fired across any query/seed: %s", total)
				}
				if total.RecoveredIterations == 0 {
					t.Errorf("no iteration rollback happened across any query/seed: %s", total)
				}
			} else if total.TaskRetries != 0 || total.RecoveredIterations != 0 {
				t.Errorf("local mode ran cluster tasks under chaos: %s", total)
			}
		})
	}
}

// A scripted worst case: kill the first attempt of every partition of every
// occurrence of every stage. Recovery must still converge to the oracle.
func TestChaosEveryTaskFirstAttemptDies(t *testing.T) {
	var schedule []rasql.ChaosEvent
	for p := 0; p < 4; p++ {
		schedule = append(schedule, rasql.ChaosEvent{
			Stage: "", Occurrence: -1, Part: p, Attempt: 0, Kind: rasql.FaultTaskStart,
		})
	}
	for _, tc := range exampleCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, _ := runWithChaos(t, tc, rasql.Config{})
			cfg := rasql.Config{}
			cfg.Cluster.Chaos = rasql.ChaosConfig{Schedule: schedule}
			got, metrics := runWithChaos(t, tc, cfg)
			if !got.EqualAsSet(want) {
				t.Errorf("result diverged when every task's first attempt died\n got: %v\nwant: %v",
					got.Sort(), want.Sort())
			}
			// Non-linear cliques (party, company-control) fall back to the
			// local engine and run no cluster tasks — nothing to kill there.
			if metrics.TasksRun > 0 && metrics.TaskRetries == 0 {
				t.Errorf("schedule never fired: %s", metrics)
			}
		})
	}
}
