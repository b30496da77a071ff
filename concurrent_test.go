package rasql_test

import (
	"context"
	"sync"
	"testing"

	rasql "github.com/rasql/rasql-go"
)

// concurrentGoroutines is how many goroutines hammer one shared engine per
// case; the CI race-concurrent job runs this file under `go test -race`.
const concurrentGoroutines = 8

// TestConcurrentQueriesMatchSequential is the tentpole's proof obligation:
// one Engine serves many queries at once. For every example query, in both
// the distributed and the forced-local mode, a sequential run on a fresh
// engine is the oracle; then a single shared engine executes the same
// script from concurrentGoroutines goroutines simultaneously, and every
// result must equal the oracle as a set. Scripts with CREATE VIEW
// (coalesce) exercise the catalog's concurrent replace-commit path.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent differential sweep is not short")
	}
	modes := []struct {
		name string
		cfg  func() rasql.Config
	}{
		{"distributed", func() rasql.Config {
			var cfg rasql.Config
			cfg.Cluster.Workers = 4
			cfg.Cluster.Partitions = 4
			return cfg
		}},
		{"local", func() rasql.Config { return rasql.Config{ForceLocal: true} }},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for _, tc := range exampleCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					t.Parallel() // overlap cases too: more schedules, same oracle per case

					oracle := rasql.New(m.cfg())
					for _, tab := range tc.tables() {
						oracle.MustRegister(tab.Clone())
					}
					want, err := oracle.Query(tc.query)
					if err != nil {
						t.Fatalf("sequential oracle: %v", err)
					}

					shared := rasql.New(m.cfg())
					for _, tab := range tc.tables() {
						shared.MustRegister(tab.Clone())
					}
					got := make([]*rasql.Relation, concurrentGoroutines)
					errs := make([]error, concurrentGoroutines)
					var wg sync.WaitGroup
					for i := 0; i < concurrentGoroutines; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							got[i], errs[i] = shared.Query(tc.query)
						}(i)
					}
					wg.Wait()

					for i := 0; i < concurrentGoroutines; i++ {
						if errs[i] != nil {
							t.Errorf("goroutine %d: %v", i, errs[i])
							continue
						}
						if !got[i].EqualAsSet(want) {
							t.Errorf("goroutine %d diverged from sequential run\n got: %v\nwant: %v",
								i, got[i].Sort(), want.Sort())
						}
					}
				})
			}
		})
	}
}

// TestConcurrentPreparedStateReuse: every execution of a prepared plan
// merges into the view state of the workspace it borrowed, which the
// previous borrower left filled. One prepared set view (TC) and one
// aggregate view (CC) each run from 4 goroutines, 8 executions apiece,
// alternating SSP(2) and BSP on the one plan so a reset state is reused
// across modes: every answer must equal the local oracle's, which it cannot
// if two executions share a state or a reset leaves rows behind.
func TestConcurrentPreparedStateReuse(t *testing.T) {
	const goroutines, execs = 4, 8
	for _, tc := range baseCases() {
		if tc.name == "sssp" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			want := oracleQuery(t, tc.query, tc.edges)
			eng := rasql.New(baseConfig())
			eng.MustRegister(tc.edges.Clone())
			p, err := eng.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < execs; i++ {
						var opts *rasql.ExecOptions
						if (g+i)%2 == 0 {
							opts = &rasql.ExecOptions{Mode: "ssp:2"}
						}
						got, err := eng.ExecPrepared(context.Background(), p, opts)
						if err != nil {
							t.Errorf("goroutine %d execution %d: %v", g, i, err)
							return
						}
						if !got.EqualAsSet(want) {
							t.Errorf("goroutine %d execution %d diverged from the oracle (%d vs %d rows)", g, i, got.Len(), want.Len())
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
