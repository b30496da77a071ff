package rasql_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/server"
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

// TestPreparedWorkspaceAfterFailure: every execution borrows its working
// memory from the plan and returns it on every path, so a failed execution
// (the iteration guard trips mid-recursion) and a cancelled one must leave
// nothing behind that a later execution could read: the next two runs
// answer like the local oracle, and the shared base is untouched.
func TestPreparedWorkspaceAfterFailure(t *testing.T) {
	for _, tc := range baseCases()[:2] {
		t.Run(tc.name, func(t *testing.T) {
			want := oracleQuery(t, tc.query, tc.edges)
			eng := rasql.New(baseConfig())
			eng.MustRegister(tc.edges.Clone())
			p, err := eng.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var nt *fixpoint.ErrNonTermination
			if _, err := eng.ExecPrepared(context.Background(), p, &rasql.ExecOptions{MaxIterations: 1}); !errors.As(err, &nt) {
				t.Fatalf("MaxIterations 1: err = %v, want *ErrNonTermination", err)
			}
			before := rasql.BaseFingerprint(p, baseWorkers)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.ExecPrepared(cancelled, p, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
			}
			for i := 0; i < 2; i++ {
				got, err := eng.ExecPrepared(context.Background(), p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualAsSet(want) {
					t.Errorf("run %d after the failures diverged from the oracle (%d vs %d rows)", i, got.Len(), want.Len())
				}
			}
			if after := rasql.BaseFingerprint(p, baseWorkers); before == 0 || after != before {
				t.Errorf("the shared base changed: fingerprint %x -> %x", before, after)
			}
		})
	}
}

// TestCCRMATPreparedAllocBudget: once a prepared CC plan has published its
// base, the next execution over the cc-rmat benchmark graph (RMAT-2000,
// symmetrized, 40K edges) pays only for the recursion and its final stage:
// 36 or 37 allocations of about 1.6 KiB on the benchmark's four workers and
// partitions, because it also borrows the working memory — projection
// scratch, combiner, shuffle receive and send memory with the stage task
// queues, the view's state and its delta buffers, the stage tasks and the
// final stage's scratch — that the previous execution sized. What is left
// is per stage (one closure per worker goroutine, a shuffle) and per query
// (its context, the result). When each query grew its own task queues an
// execution made 41 or 42 allocations, and when every merge appended a
// fresh delta, every stage built its task list and every worker took two
// closures, 358 of 514 KiB. The final count(distinct cc.CmpId) runs where
// the view lives: each partition ships its distinct labels, not its 1,985
// rows' worth of view, and the driver counts them without a key string per
// row. Rebuilding the base — 40K projected seed rows, the partitioned edge
// tables — brings an execution to about 56K allocations, and rebuilding the
// working memory to about 24 MiB. The execution's counts are pinned
// exactly: 4 iterations, a 1,985-row fixpoint, and 22,390 shuffle records
// in 139,784 bytes.
func TestCCRMATPreparedAllocBudget(t *testing.T) {
	preparedAllocFence(t, ccRMATEdges(), queries.CC, preparedCounts{4, 1985, 139784, 22390}, 41, 1804)
}

// TestTCGridPreparedAllocBudget is the same fence over the tc-grid
// benchmark query (transitive closure of the 21x21 grid, then count(*)): a
// warm execution merges 52,920 pairs into the set state its workspace kept from
// the previous execution and counts them in the final stage, partition by
// partition, so the driver fetches one partial count per partition — 14 to
// 16 allocations of about 1.1 KiB. Its seed is decoded into the partitions'
// receive memory and its two stages run on the workspace's kept tasks and
// task queues; when each execution grew its task queues it made 19 or 20
// allocations, when each execution decoded the 840 seed rows into fresh memory and built its
// task lists it made 48 allocations of 91 KiB, when the driver collected
// the view to count it 62 of 9 MiB, and when every execution built its
// state from nothing 520 of 30 MiB. The plan decomposes, so it never
// shuffles.
func TestTCGridPreparedAllocBudget(t *testing.T) {
	preparedAllocFence(t, tcGridEdges(), tcGridQuery, preparedCounts{40, 52920, 0, 0}, 18, 1241)
}

// tcGridQuery is the tc-grid benchmark statement over tcGridEdges.
const tcGridQuery = `WITH recursive tc(Src, Dst) AS (SELECT Src, Dst FROM grid_edge) UNION (SELECT tc.Src, grid_edge.Dst FROM tc, grid_edge WHERE tc.Dst = grid_edge.Src) SELECT count(*) FROM tc`

// tcGridEdges is the tc-grid benchmark graph, the 21x21 grid.
func tcGridEdges() *rasql.Relation {
	edges := gen.Unweighted(gen.Grid(20, gen.Rng(1)))
	edges.Name = "grid_edge"
	return edges
}

// ccRMATEdges is the cc-rmat benchmark graph: RMAT-2000, symmetrized.
func ccRMATEdges() *rasql.Relation {
	return gen.Symmetrized(gen.Unweighted(gen.RMATDefault(2000, gen.Rng(1))))
}

// TestShortReachPreparedAllocBudget is the fence over short-mix's class C
// shape: a reachability count(*) from the highest-degree vertex of
// RMAT-200, the short-mix graph. The recursion is short, so an execution's
// fixed cost dominates: one closure per worker goroutine of each of its
// stages, whose tasks the workspace keeps, and the final stage, whose
// partial counts the driver decodes into memory the workspace keeps too —
// 36 or 37 allocations of about 1.6 KiB on four workers, against 41 or 42
// with task queues of its own, 110 of 8 KiB with fresh deltas and task
// lists and about 120 of 33 KiB with the collect.
func TestShortReachPreparedAllocBudget(t *testing.T) {
	edges := mixEdges()
	query := fmt.Sprintf(`WITH recursive reach(Dst) AS (SELECT %d) UNION (SELECT mix_edge.Dst FROM reach, mix_edge WHERE reach.Dst = mix_edge.Src) SELECT count(*) FROM reach`, busiestSrc(edges))
	preparedAllocFence(t, edges, query, preparedCounts{4, 199, 7071, 2000}, 41, 1804)
}

// preparedCounts are the exact counts of one prepared execution.
type preparedCounts struct{ iterations, viewRows, shuffleBytes, shuffleRecords int64 }

// preparedAllocFence holds a warm execution of query over edges (see
// warmExecution) to the allocation budgets, each the measured value plus
// 10%. Its counts must equal want: the iterations and shuffle volume of the
// measured execution, and the view's fixpoint size read from one more,
// traced, execution. Any change to the plan, the map-side combine or the
// wire format moves one of them.
func preparedAllocFence(t *testing.T, edges *rasql.Relation, query string, want preparedCounts, budget, byteBudget uint64) {
	t.Helper()
	eng, p := prepareFenced(t, edges, query)
	_, allocs, bytes := warmExecution(t, eng, p)
	s, _ := eng.Observability().Last()
	tr := rasql.NewIterationsTracer()
	if _, err := eng.ExecPrepared(context.Background(), p, &rasql.ExecOptions{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var viewRows int64
	if evs := tr.Iterations(); len(evs) > 0 {
		viewRows = int64(evs[len(evs)-1].AllRows)
	}
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"iterations", s.Iterations, want.iterations},
		{"result rows", viewRows, want.viewRows},
		{"shuffle bytes", s.ShuffleBytes, want.shuffleBytes},
		{"shuffle records", s.ShuffleRecords, want.shuffleRecords},
	} {
		if c.got != c.want {
			t.Errorf("a prepared execution's %s changed: %d, was %d", c.what, c.got, c.want)
		}
	}
	checkAllocBudget(t, allocs, bytes, budget, byteBudget)
}

// prepareFenced prepares query over edges on an engine with the benchmark's
// four workers and four partitions (the default follows the host's
// GOMAXPROCS). It skips under the race detector, whose shadow allocations
// are not the engine's.
func prepareFenced(t testing.TB, edges *rasql.Relation, query string) (*rasql.Engine, *rasql.Prepared) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the engine's")
	}
	eng := rasql.New(rasql.Config{Cluster: cluster.Config{Workers: 4, Partitions: 4}})
	eng.MustRegister(edges)
	p, err := eng.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

// warmExecution runs p once to build the base and size the working memory,
// then measures the next execution: its result, and the allocations and
// bytes it made.
func warmExecution(t testing.TB, eng *rasql.Engine, p *rasql.Prepared) (res *rasql.Relation, allocs, bytes uint64) {
	t.Helper()
	run := func() *rasql.Relation {
		res, err := eng.ExecPrepared(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // build and publish the base; size the workspace, its state and send memory
	// The measured execution runs on one P, as in TestWarmExecutionIgnoresGC:
	// with more, a stage goroutine that finds no free goroutine of its P
	// costs the runtime a new one, a few hundred bytes each time the
	// scheduler happens to place it so, and that noise is not the engine's.
	prev := runtime.GOMAXPROCS(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res = run()
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(prev)
	return res, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// checkAllocBudget fails t when a measured execution's allocations or bytes
// pass their budgets, and logs both.
func checkAllocBudget(t *testing.T, got, bytes, budget, byteBudget uint64) {
	t.Helper()
	if got > budget {
		t.Errorf("a prepared execution made %d allocations, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Errorf("a prepared execution allocated %d KiB, budget %d KiB", bytes>>10, byteBudget>>10)
	}
	t.Logf("a prepared execution made %d allocations of %d B (budgets %d, %d B)", got, bytes, budget, byteBudget)
}

// TestRowsOutServedAllocBudget holds one served request of the rows-out
// benchmark statement, SELECT Src, Dst, Cost FROM out_edge over the 20,000
// rows of RMAT-2000, to an allocation budget, the response's encoding
// included. The statement projects each joined tuple into one reused row,
// which goes straight into the response body as JSON, and the body comes
// from the server's free list, so no result relation is built and no
// buffer grows: 40 to 45 allocations of under 5 KiB (the spread is
// encoding/json's sync.Pool, which a collection empties, refilled by the
// stats' json.Marshal). When the statement built a result relation, its
// value slab and row headers, that the server then encoded, a request made
// 42 to 50 allocations of 2.9 MiB; when it allocated a row and an
// environment per output row and the server built a [][]any for
// encoding/json, 88,500 allocations of 7.7 MiB. The budgets are the
// largest of 30 runs plus 10%.
func TestRowsOutServedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the engine's")
	}
	w, request, serve := rowsOutServer(t)
	var reply struct {
		Rows     [][]any `json:"rows"`
		RowCount int     `json:"row_count"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &reply); err != nil || reply.RowCount != rowsOutRows || len(reply.Rows) != rowsOutRows {
		t.Fatalf("rows-out reply: %d rows, row_count %d, err %v; want %d", len(reply.Rows), reply.RowCount, err, rowsOutRows)
	}
	const budget, byteBudget = 50, 5440
	req := request()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(req)
	runtime.ReadMemStats(&after)
	got, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if got > budget {
		t.Errorf("a served rows-out request made %d allocations, budget %d", got, budget)
	}
	if bytes > byteBudget {
		t.Errorf("a served rows-out request allocated %d B, budget %d B", bytes, byteBudget)
	}
	t.Logf("a served rows-out request made %d allocations of %d B (budgets %d, %d B)", got, bytes, budget, byteBudget)
}

// rowsOutRows is the number of rows of the rows-out table, RMAT-2000.
const rowsOutRows = 20000

// rowsOutServer serves the rows-out benchmark's table, RMAT-2000 named
// out_edge, through server.Handler in process, and returns the reused
// writer, a maker of the statement's request and the function serving one,
// which fails tb unless it answers 200. It has served one request already:
// the plan is compiled and cached and the writer and a response body sized.
func rowsOutServer(tb testing.TB) (*bodyWriter, func() *http.Request, func(*http.Request)) {
	edges := gen.RMATDefault(2000, gen.Rng(1))
	edges.Name = "out_edge"
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(edges)
	handler := server.New(eng, server.Config{}).Handler()
	body := []byte(`{"sql":"SELECT Src, Dst, Cost FROM out_edge"}`)
	w := &bodyWriter{header: http.Header{}}
	request := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	}
	serve := func(req *http.Request) {
		w.body.Reset()
		w.status = http.StatusOK
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	}
	serve(request())
	return w, request, serve
}

// bodyWriter is a reusable http.ResponseWriter, so a measured request pays
// only for what the server allocates.
type bodyWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *bodyWriter) Header() http.Header         { return w.header }
func (w *bodyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *bodyWriter) WriteHeader(status int)      { w.status = status }

// TestCrossProductAllocBudget: a statement streams its join into its sink,
// so SELECT count(*) over the million pairs of a 1,000-row self cross
// product allocates no environment per pair: under 1 MiB in all. When the
// join materialized one environment per tuple it allocated 167 MiB.
func TestCrossProductAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the engine's")
	}
	e := rasql.NewRelation("e", rasql.NewSchema(rasql.Col("A", rasql.KindInt)))
	for i := range 1000 {
		e.Append(rasql.Row{rasql.Int(int64(i))})
	}
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(e)
	p, err := eng.Prepare("SELECT count(*) FROM e x, e y")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rel, err := eng.ExecPrepared(context.Background(), p, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || !rel.Rows[0][0].Equal(rasql.Int(1000*1000)) {
		t.Fatalf("count = %v, want 1000000", rel.Rows)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
		t.Errorf("the cross product allocated %d KiB, want under 1 MiB", bytes>>10)
	}
}

// TestWarmExecutionIgnoresGC: a warm prepared execution encodes its wire
// bytes into memory its plan owns, so what it allocates does not depend on
// when the collector last ran. Two warm executions, the second right after
// two forced collections, must allocate within a few objects of each other
// on the cc-rmat graph (shuffles and transfers) and on the tc-grid graph
// (transfers only). Memory a collection can take back — a recycling pool,
// say — shows up here as a second execution that buys it again.
// The engine is built at the host's GOMAXPROCS, so it runs the workers the
// benchmark runs; only the two measured executions share one P.
func TestWarmExecutionIgnoresGC(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the engine's")
	}
	const slack = 10
	for _, c := range []struct {
		name, query string
		edges       *rasql.Relation
	}{
		{"cc-rmat", queries.CC, ccRMATEdges()},
		{"tc-grid", queries.TC, gen.Unweighted(gen.Grid(20, gen.Rng(1)))},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := rasql.New(rasql.Config{})
			eng.MustRegister(c.edges)
			p, err := eng.Prepare(c.query)
			if err != nil {
				t.Fatal(err)
			}
			mallocs := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := eng.ExecPrepared(context.Background(), p, nil); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			mallocs() // build and publish the base; size the plan's working memory
			// The measured executions run on one P: with more, when the
			// scheduler parks and wakes the stage goroutines varies the
			// runtime's own allocations by a dozen objects from run to
			// run, and that noise is not the engine's.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			warm := mallocs()
			runtime.GC()
			runtime.GC()
			afterGC := mallocs()
			d := int64(afterGC) - int64(warm)
			if d > slack || d < -slack {
				t.Errorf("a warm execution made %d allocations, %d right after two collections (%+d, slack %d)", warm, afterGC, d, slack)
			}
			t.Logf("a warm execution made %d allocations, %d right after two collections", warm, afterGC)
		})
	}
}
