package rasql_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/parser"
)

const ssspQuery = `
	WITH recursive path (Dst, min() AS Cost) AS
	    (SELECT 1, 0.0) UNION
	    (SELECT edge.Dst, path.Cost + edge.Cost
	     FROM path, edge WHERE path.Dst = edge.Src)
	SELECT Dst, Cost FROM path`

// TestQueryStatsFold checks the full per-query stats pipeline: every Exec
// folds one QueryStats into the engine recorder, carrying the query ID,
// latency, iteration count, shuffle attribution and the fixpoint mode.
func TestQueryStatsFold(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	if _, ok := eng.Observability().Last(); ok {
		t.Fatal("fresh engine already has a QueryStats record")
	}
	if _, err := eng.Query(ssspQuery); err != nil {
		t.Fatal(err)
	}
	s, ok := eng.Observability().Last()
	if !ok {
		t.Fatal("no QueryStats after a successful query")
	}
	if s.ID != 1 {
		t.Errorf("first query ID = %d, want 1", s.ID)
	}
	if s.WallNanos <= 0 || s.Iterations <= 0 || s.ShuffleBytes <= 0 {
		t.Errorf("stats not attributed: wall=%d iters=%d shuffle=%d", s.WallNanos, s.Iterations, s.ShuffleBytes)
	}
	if s.Mode != "bsp" {
		t.Errorf("mode = %q, want bsp", s.Mode)
	}
	if s.Err != "" {
		t.Errorf("Err = %q on a successful query", s.Err)
	}

	// A second query gets the next ID; a failing script records its error.
	if _, err := eng.Query(`SELECT Nope FROM edge`); err == nil {
		t.Fatal("bad query did not error")
	}
	s, _ = eng.Observability().Last()
	if s.ID != 2 || s.Err == "" {
		t.Errorf("failed query stats = ID %d, Err %q; want ID 2 with error text", s.ID, s.Err)
	}
}

// TestQueryStatsLocalMode checks mode attribution on the local-engine paths:
// a forced-local engine and a clique the distributed engine rejects.
func TestQueryStatsLocalMode(t *testing.T) {
	eng := rasql.New(rasql.Config{ForceLocal: true})
	eng.MustRegister(weightedEdges())
	if _, err := eng.Query(ssspQuery); err != nil {
		t.Fatal(err)
	}
	if s, _ := eng.Observability().Last(); s.Mode != "local" {
		t.Errorf("forced-local mode = %q, want local", s.Mode)
	}

	// Non-linear recursion falls back to the local engine with a reason.
	eng2 := rasql.New(rasql.Config{})
	eng2.MustRegister(plainEdges([2]int64{1, 2}, [2]int64{2, 3}))
	nonlinear := `
		WITH recursive tc (Src, Dst) AS
		    (SELECT Src, Dst FROM edge) UNION
		    (SELECT a.Src, b.Dst FROM tc a, tc b WHERE a.Dst = b.Src)
		SELECT count(*) FROM tc`
	if _, err := eng2.Query(nonlinear); err != nil {
		t.Fatal(err)
	}
	s, _ := eng2.Observability().Last()
	if s.Mode != "local" || s.FallbackReason == "" {
		t.Errorf("non-linear clique stats = mode %q, fallback %q; want local with a reason", s.Mode, s.FallbackReason)
	}
}

// TestQueryStatsLocalIterations: the local engine reports its iterations
// like the distributed drivers do, so a forced-local SSSP and its BSP run
// record the same nonzero count in their QueryStats.
func TestQueryStatsLocalIterations(t *testing.T) {
	iters := func(cfg rasql.Config) int64 {
		eng := rasql.New(cfg)
		eng.MustRegister(weightedEdges())
		if _, err := eng.Query(ssspQuery); err != nil {
			t.Fatal(err)
		}
		s, _ := eng.Observability().Last()
		return s.Iterations
	}
	bsp, local := iters(rasql.Config{}), iters(rasql.Config{ForceLocal: true})
	if bsp <= 0 || local != bsp {
		t.Errorf("SSSP iterations: local %d, BSP %d; want equal and nonzero", local, bsp)
	}
}

// TestFixpointNaiveRunsLocal pins that Config.Fixpoint.Naive alone selects
// naive evaluation: no distributed runner implements it, so the engine runs
// the local engine's naive loop — five iterations on SSSP here, one more
// than semi-naive's four — and says so in the stats and in EXPLAIN.
func TestFixpointNaiveRunsLocal(t *testing.T) {
	eng := rasql.New(naiveConfig())
	eng.MustRegister(weightedEdges())
	stmts, err := parser.Parse(ssspQuery)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analyze.Statement(stmts[0], eng.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunClique(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 {
		t.Errorf("naive SSSP took %d iterations, want 5", res.Iterations)
	}
	if s, _ := eng.Observability().Last(); s.Mode != "local" || s.Iterations != 5 {
		t.Errorf("naive stats = mode %q, %d iterations; want local, 5", s.Mode, s.Iterations)
	}
	out, err := eng.Explain(ssspQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "Fixpoint: local (forced)\n") {
		t.Errorf("EXPLAIN of a naive engine:\n%s\nwant it to start with \"Fixpoint: local (forced)\"", out)
	}
}

// TestConcurrentQueryStats runs queries from many goroutines on one engine:
// every query must fold exactly once with a unique ID (read from the query
// log, which gets one line per fold), and the registry exposition must stay
// strict-parser clean under concurrent scrapes.
func TestConcurrentQueryStats(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	var log bytes.Buffer // the JSON handler serializes its writes
	eng.Observability().SetLogger(slog.New(slog.NewJSONHandler(&log, nil)))
	const goroutines, perG = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := eng.Query(ssspQuery); err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := eng.Observability().Registry().WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := obs.ParsePrometheus(buf.Bytes()); err != nil {
					t.Errorf("mid-run exposition invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("query log has %d lines, want %d", len(lines), goroutines*perG)
	}
	ids := map[uint64]bool{}
	for _, line := range lines {
		var rec struct {
			Qid uint64 `json:"qid"`
			Err string `json:"err"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("query log line %q: %v", line, err)
		}
		if ids[rec.Qid] {
			t.Errorf("duplicate query ID %d", rec.Qid)
		}
		ids[rec.Qid] = true
		if rec.Err != "" {
			t.Errorf("query %d recorded error %q", rec.Qid, rec.Err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Observability().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams["rasql_query_latency_nanos"].Samples {
		if s.Name == "rasql_query_latency_nanos_count" && s.Value != goroutines*perG {
			t.Errorf("latency histogram count = %v, want %d", s.Value, goroutines*perG)
		}
	}
}
