package rasql_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/queries"
)

// A compiled plan owns its physical base side: the first ExecPrepared
// builds the plan, the seed partitions and the co-partitioned/broadcast
// tables, and every later execution reuses them. These tests pin the three
// ways that can go wrong — a shared base written by a concurrent execution,
// a base outliving the table it was built from, and a base silently rebuilt
// per query.

const baseWorkers = 4

func baseConfig() rasql.Config {
	var cfg rasql.Config
	cfg.Cluster.Workers = baseWorkers
	cfg.Cluster.Partitions = baseWorkers
	return cfg
}

// baseCases are one program per join shape: CC and SSSP co-partition their
// base relation, TC decomposes over a broadcast one.
func baseCases() []struct {
	name, query string
	edges       *rasql.Relation
} {
	rmat := gen.RMATDefault(64, gen.Rng(5))
	return []struct {
		name, query string
		edges       *rasql.Relation
	}{
		{"cc", queries.CCLabels, gen.Symmetrized(gen.Unweighted(rmat))},
		{"sssp", queries.SSSP, rmat},
		{"tc", queries.TC, gen.Unweighted(gen.RMATDefault(24, gen.Rng(6)))},
	}
}

func oracleQuery(t *testing.T, query string, edges *rasql.Relation) *rasql.Relation {
	t.Helper()
	eng := rasql.New(rasql.Config{ForceLocal: true})
	eng.MustRegister(edges.Clone())
	want, err := eng.Query(query)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return want
}

// TestConcurrentPreparedSharedBase executes one prepared plan from many
// goroutines under every barrier mode: each result must equal the local
// oracle, every execution after the first must reuse the published base,
// and the base's rows must hash identically before and after.
func TestConcurrentPreparedSharedBase(t *testing.T) {
	for _, tc := range baseCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := oracleQuery(t, tc.query, tc.edges)
			eng := rasql.New(baseConfig())
			eng.MustRegister(tc.edges.Clone())
			p, err := eng.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.ExecPrepared(context.Background(), p, nil); err != nil {
				t.Fatal(err)
			}
			before := rasql.BaseFingerprint(p, baseWorkers)
			if before == 0 {
				t.Fatal("the first execution published no base")
			}
			execs := 0
			for _, mode := range []string{"bsp", "ssp:2", "async"} {
				var wg sync.WaitGroup
				errs := make([]error, concurrentGoroutines)
				for i := range errs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got, err := eng.ExecPrepared(context.Background(), p, &rasql.ExecOptions{Mode: mode})
						if err == nil && !got.EqualAsSet(want) {
							err = fmt.Errorf("diverged from the oracle (%d vs %d rows)", got.Len(), want.Len())
						}
						errs[i] = err
					}(i)
				}
				wg.Wait()
				execs += concurrentGoroutines
				for i, err := range errs {
					if err != nil {
						t.Errorf("%s goroutine %d: %v", mode, i, err)
					}
				}
			}
			if after := rasql.BaseFingerprint(p, baseWorkers); after != before {
				t.Errorf("the shared base changed under execution: fingerprint %x -> %x", before, after)
			}
			if got := eng.Metrics().BaseReuses; got != int64(execs) {
				t.Errorf("BaseReuses = %d, want %d (every execution after the first)", got, execs)
			}
		})
	}
}

// TestPreparedBaseDDLChurn: re-registering the base table retires the old
// plan (ErrPlanStale) with its base, and a fresh plan answers from the new
// rows. A chaos-enabled engine builds a private base per query and still
// recovers to the fault-free answer.
func TestPreparedBaseDDLChurn(t *testing.T) {
	ctx := context.Background()
	oldEdges := gen.Symmetrized(gen.Unweighted(gen.RMATDefault(64, gen.Rng(7))))
	newEdges := gen.Symmetrized(gen.Unweighted(gen.Grid(6, gen.Rng(8))))
	oldWant := oracleQuery(t, queries.CCLabels, oldEdges)
	newWant := oracleQuery(t, queries.CCLabels, newEdges)
	if oldWant.EqualAsSet(newWant) {
		t.Fatal("the two tables must give different answers")
	}

	eng := rasql.New(baseConfig())
	eng.MustRegister(oldEdges.Clone())
	old, err := eng.Prepare(queries.CCLabels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := eng.ExecPrepared(ctx, old, nil)
		if err != nil || !got.EqualAsSet(oldWant) {
			t.Fatalf("old plan, run %d: err=%v, matches=%v", i, err, err == nil && got.EqualAsSet(oldWant))
		}
	}
	eng.MustRegister(newEdges.Clone())
	if _, err := eng.ExecPrepared(ctx, old, nil); !errors.Is(err, rasql.ErrPlanStale) {
		t.Fatalf("old plan after re-Register: err = %v, want ErrPlanStale", err)
	}
	fresh, err := eng.Prepare(queries.CCLabels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := eng.ExecPrepared(ctx, fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(newWant) {
			t.Fatalf("fresh plan, run %d, answered from stale rows (%d rows, want %d)", i, got.Len(), newWant.Len())
		}
	}

	cfg := baseConfig()
	cfg.Cluster.Chaos = rasql.ChaosConfig{Schedule: []rasql.ChaosEvent{
		{Stage: "fixpoint.shufflemap", Occurrence: 1, Part: 3, Kind: rasql.FaultPostMerge},
	}}
	chaos := rasql.New(cfg)
	chaos.MustRegister(newEdges.Clone())
	p, err := chaos.Prepare(queries.CCLabels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := chaos.ExecPrepared(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(newWant) {
			t.Errorf("chaos run %d diverged from the fault-free answer", i)
		}
	}
	m := chaos.Metrics()
	if m.TaskRetries < 2 || m.RecoveredIterations < 2 {
		t.Errorf("the scripted fault did not fire on both runs (retries=%d recovered=%d)", m.TaskRetries, m.RecoveredIterations)
	}
	if m.BaseReuses != 0 || rasql.BaseFingerprint(p, baseWorkers) != 0 {
		t.Errorf("a chaos-enabled engine shared a base (reuses=%d)", m.BaseReuses)
	}
}

// TestCCRMATPreparedAllocBudget: once a prepared CC plan has published its
// base, the next execution over the cc-rmat benchmark graph (RMAT-2000,
// symmetrized, 40K edges) pays only for the recursion, about 6K
// allocations. Rebuilding the base — 40K projected seed rows, the
// partitioned edge tables — brings it to about 56K.
func TestCCRMATPreparedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the engine's")
	}
	const budget = 15000
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(gen.Symmetrized(gen.Unweighted(gen.RMATDefault(2000, gen.Rng(1)))))
	p, err := eng.Prepare(queries.CC)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := eng.ExecPrepared(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // build and publish the base; warm the shuffle buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > budget {
		t.Errorf("a prepared CC execution made %d allocations, budget %d", got, budget)
	} else {
		t.Logf("a prepared CC execution made %d allocations (budget %d)", got, budget)
	}
}
