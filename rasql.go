// Package rasql is a from-scratch Go implementation of RaSQL —
// Recursive-aggregate-SQL (Gu et al., SIGMOD 2019): SQL:99 recursive common
// table expressions extended with min/max/sum/count aggregates in the
// recursive view head, compiled into a fixpoint operator and evaluated with
// distributed semi-naive iteration on a simulated Spark-like cluster.
//
// Quick start:
//
//	eng := rasql.New(rasql.Config{})
//	eng.MustRegister(edges) // a *relation.Relation named "edge"
//	res, err := eng.Exec(`
//	    WITH recursive path (Dst, min() AS Cost) AS
//	        (SELECT 1, 0) UNION
//	        (SELECT edge.Dst, path.Cost + edge.Cost
//	         FROM path, edge WHERE path.Dst = edge.Src)
//	    SELECT Dst, Cost FROM path`)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package rasql

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/optimize"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/sql/vet"
	"github.com/rasql/rasql-go/internal/trace"
)

// Config parameterizes an Engine. The zero value is a working default:
// distributed evaluation on a GOMAXPROCS-worker simulated cluster with all
// of the paper's optimizations enabled.
type Config struct {
	// Cluster configures the simulated cluster. Zero values get defaults
	// (workers = GOMAXPROCS, partition-aware scheduling).
	Cluster cluster.Config
	// Fixpoint configures the fixpoint operator. Zero values get
	// defaults; StageCombination defaults to on unless RawOptimizations.
	// Fixpoint.Naive (naive re-derivation, the paper's Algorithm 1/2
	// baseline) runs only on the local engine, so it implies ForceLocal.
	Fixpoint fixpoint.DistOptions
	// ForceLocal always evaluates recursion with the single-threaded
	// reference engine.
	ForceLocal bool
	// RawOptimizations keeps every optimization flag exactly as given
	// instead of applying the RaSQL defaults (stage combination on,
	// broadcast compression on).
	RawOptimizations bool
}

// Engine is a RaSQL session: a catalog of base tables plus a configured
// execution environment. An Engine is safe for concurrent use: each query
// runs under its own per-query cluster context (tracer, counters, chaos
// injector) and analyzes against a snapshot-isolated clone of the session
// catalog, so any number of goroutines may call Exec/Query/ExecPrepared on
// one Engine at the same time. Catalog registrations commit under the
// catalog's own lock.
type Engine struct {
	cfg     Config
	cat     *catalog.Catalog
	cluster *cluster.Cluster
	// obs is the engine's metrics recorder: every finished query folds its
	// QueryStats into the registry histograms, the last-query record and
	// (when attached) the structured query log.
	obs *obs.Recorder

	// mu guards the engine-attached tracer; queries snapshot it when they
	// start, so SetTracer mid-query affects only later queries.
	mu sync.RWMutex
	// guarded by mu
	tracer *trace.Tracer
}

// New creates an engine. Unless cfg.RawOptimizations is set, the paper's
// default optimizations are switched on: stage combination and compressed
// broadcast. Naive evaluation forces the local engine.
func New(cfg Config) *Engine {
	if !cfg.RawOptimizations {
		cfg.Fixpoint.StageCombination = true
		cfg.Cluster.CompressBroadcast = true
	}
	if cfg.Fixpoint.Naive {
		cfg.ForceLocal = true
	}
	e := &Engine{cfg: cfg, cat: catalog.New(), cluster: cluster.New(cfg.Cluster), obs: obs.NewRecorder()}
	e.cluster.SetObserver(e.obs)
	return e
}

// Register adds a base table to the catalog, replacing any table of the same
// name. A registered relation must not be mutated in place: compiled plans
// cache structures built from its rows. Register it again to change it.
func (e *Engine) Register(rel *relation.Relation) error { return e.cat.Register(rel) }

// MustRegister is Register, panicking on error. Intended for setup code.
func (e *Engine) MustRegister(rel *relation.Relation) {
	if err := e.Register(rel); err != nil {
		panic(err)
	}
}

// Catalog exposes the engine's catalog (for tooling such as the REPL).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Metrics returns a snapshot of the simulated cluster's counters.
func (e *Engine) Metrics() cluster.Snapshot { return e.cluster.Metrics.Snapshot() }

// Observability returns the engine's metrics recorder: per-query stats
// histograms, the last query's stats and the Prometheus registry. The
// recorder lives as long as the engine and is safe for concurrent use.
func (e *Engine) Observability() *obs.Recorder { return e.obs }

// SetTracer attaches a tracer to the engine; subsequent queries record
// driver-phase, stage and task spans plus per-iteration fixpoint telemetry
// into it. Passing nil detaches tracing (the default, near-zero-cost
// state). Queries already in flight keep the tracer they started with.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.mu.Lock()
	e.tracer = t
	e.mu.Unlock()
}

// Tracer returns the currently attached tracer (nil when tracing is off).
func (e *Engine) Tracer() *trace.Tracer {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tracer
}

// ExecOptions overrides per-query execution settings. The zero value (and a
// nil *ExecOptions) means "engine defaults" for every field — used by server
// sessions, which carry their own eval mode and limits per session.
type ExecOptions struct {
	// Mode overrides the fixpoint evaluation mode for this query using the
	// -mode flag syntax: "bsp", "ssp", "ssp:k" or "async". Empty inherits
	// the engine configuration.
	Mode string
	// MaxIterations overrides the fixpoint iteration bound (0 inherits).
	MaxIterations int
	// Tracer overrides the engine-attached tracer for this query (nil
	// inherits; tracing stays off if neither is set).
	Tracer *trace.Tracer
	// Stats, when non-nil, receives the finished query's QueryStats — the
	// same record the engine's recorder observes — so servers can attach
	// per-query execution stats to their responses without racing other
	// queries for the recorder's last record.
	Stats *obs.QueryStats
	// Rows, when non-nil, receives the rows of the script's last query
	// statement as they are produced, and the returned relation carries
	// that statement's schema and no rows. A row is valid only during the
	// call that hands it over. When the query fails, Rows may have seen
	// some of its rows.
	Rows RowSink
}

// RowSink receives a statement's result rows, in order (ExecOptions.Rows).
// The row a call hands over is valid only during that call.
type RowSink = exec.RowSink

func (o *ExecOptions) rows() RowSink {
	if o == nil {
		return nil
	}
	return o.Rows
}

func (o *ExecOptions) tracer(e *Engine) *trace.Tracer {
	if o != nil && o.Tracer != nil {
		return o.Tracer
	}
	return e.Tracer()
}

// Exec runs a script: CREATE VIEW statements register views; each SELECT or
// WITH statement executes. The result of the last query statement is
// returned (nil if the script only defines views).
func (e *Engine) Exec(src string) (*relation.Relation, error) {
	return e.ExecContext(context.Background(), src)
}

// ExecContext is Exec with a cancellation context: when ctx is cancelled or
// its deadline expires, a running fixpoint stops at the next iteration
// boundary and the query returns an error satisfying
// errors.Is(err, ctx.Err()).
func (e *Engine) ExecContext(ctx context.Context, src string) (*relation.Relation, error) {
	return e.ExecOpt(ctx, src, nil)
}

// ExecOpt is ExecContext with per-query option overrides (nil opts = engine
// defaults).
func (e *Engine) ExecOpt(ctx context.Context, src string, opts *ExecOptions) (*relation.Relation, error) {
	qc := e.cluster.NewQuery(opts.tracer(e))
	qc.SetContext(ctx)
	defer qc.Finish()
	rel, err := e.exec(qc, src, opts)
	qc.SetErr(err)
	if opts != nil && opts.Stats != nil {
		qc.Finish()
		*opts.Stats = qc.Stats(qc.Metrics.Snapshot())
	}
	return rel, err
}

// QueryContext is Query with a cancellation context (see ExecContext).
func (e *Engine) QueryContext(ctx context.Context, src string) (*relation.Relation, error) {
	rel, err := e.ExecContext(ctx, src)
	if err != nil {
		return nil, err
	}
	if rel == nil {
		return nil, fmt.Errorf("rasql: script contained no query statement")
	}
	return rel, nil
}

// exec runs a script under one per-query cluster context. CREATE VIEW
// commits to the session with replace semantics (see walk), so re-running a
// script — sequentially or from concurrent goroutines — stays idempotent.
func (e *Engine) exec(qc *cluster.QueryContext, src string, opts *ExecOptions) (*relation.Relation, error) {
	var last *relation.Relation
	err := e.walk(src, qc.Tracer, true, nil, func(prog *analyze.Program, isLast bool) (err error) {
		var sink RowSink
		if isLast {
			sink = opts.rows()
		}
		last, err = e.run(qc, prog, sink, opts, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return last, nil
}

// walk is how every entry point reads a script (Exec, Prepare, Vet,
// Explain, ExplainAnalyze): it parses src and compiles it statement by
// statement against a snapshot-isolated clone of the session catalog.
// CREATE VIEW replaces any view of the same name in the clone, so later
// statements see it, and in the session too when commit is set; onView,
// when non-nil, sees the statement first and may refuse it. Every other
// statement is analyzed and optimized under tr's spans and handed to
// onQuery, with whether it is the script's last query statement.
func (e *Engine) walk(src string, tr *trace.Tracer, commit bool, onView func(*ast.CreateView) error, onQuery func(prog *analyze.Program, last bool) error) error {
	sp := tr.Begin("parse", trace.TidDriver)
	stmts, err := parser.Parse(src)
	sp.End()
	if err != nil {
		return err
	}
	lastQuery := -1
	for i, s := range stmts {
		if _, ok := s.(*ast.CreateView); !ok {
			lastQuery = i
		}
	}
	cat := e.cat.Clone()
	for i, s := range stmts {
		if cv, ok := s.(*ast.CreateView); ok {
			if onView != nil {
				if err := onView(cv); err != nil {
					return err
				}
			}
			v := &catalog.ViewDef{Name: cv.Name, Columns: cv.Columns, Query: cv.Query}
			if err := cat.PutView(v); err != nil {
				return err
			}
			if commit {
				if err := e.cat.PutView(v); err != nil {
					return err
				}
			}
			continue
		}
		sp = tr.Begin("analyze", trace.TidDriver)
		prog, err := analyze.Statement(s, cat)
		if err == nil {
			prog = optimize.Program(prog)
		}
		sp.End()
		if err != nil {
			return err
		}
		if err := onQuery(prog, i == lastQuery); err != nil {
			return err
		}
	}
	return nil
}

// Compile reads a script the way Exec does — CREATE VIEW replaces into a
// throwaway copy of the catalog, and the query statement is analyzed and
// optimized — and returns the program of its one query statement without
// running it or committing anything. Tools that evaluate a program
// themselves (the PreM checker) start here.
func (e *Engine) Compile(src string) (*analyze.Program, error) {
	var prog *analyze.Program
	err := e.walk(src, nil, false, nil, func(p *analyze.Program, _ bool) error {
		if prog != nil {
			return fmt.Errorf("rasql: script has more than one query statement")
		}
		prog = p
		return nil
	})
	if err == nil && prog == nil {
		err = fmt.Errorf("rasql: script contained no query statement")
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// Query runs a single query statement and returns its result.
func (e *Engine) Query(src string) (*relation.Relation, error) {
	rel, err := e.Exec(src)
	if err != nil {
		return nil, err
	}
	if rel == nil {
		return nil, fmt.Errorf("rasql: script contained no query statement")
	}
	return rel, nil
}

// Vet statically analyzes a script without executing it: every query
// statement is parsed, analyzed and optimized exactly as Exec would, then
// run through the vet passes (static PreM certification, termination and
// plan-hygiene lints). CREATE VIEW statements replace into a throwaway copy
// of the catalog, so vetting never mutates the session. The merged report
// covers every query statement in the script.
func (e *Engine) Vet(src string) (*vet.Report, error) {
	sp := e.Tracer().Begin("vet", trace.TidDriver)
	defer sp.End()
	rep := &vet.Report{}
	err := e.walk(src, nil, false, nil, func(prog *analyze.Program, _ bool) error {
		rep.Merge(vet.Analyze(prog))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// run executes one program. A non-nil slot holds the program's shared
// physical base side (see Prepared); nil builds it for this query alone.
// When the distributed engine ran the final query as the fixpoint's final
// stage, its result is the program's; otherwise the final query runs here,
// over the view the fixpoint collected. A non-nil sink receives the result's
// rows instead of the returned relation, which then has none.
func (e *Engine) run(qc *cluster.QueryContext, prog *analyze.Program, sink RowSink, opts *ExecOptions, slot *fixpoint.BaseSlot) (*relation.Relation, error) {
	ctx := exec.NewContext()
	ctx.Ctx = qc.Context()
	if prog.Clique != nil && len(prog.Clique.Views) > 0 {
		sp := qc.Tracer.Begin("fixpoint", trace.TidDriver)
		res, err := e.runClique(qc, prog.Clique, prog.Final, ctx, opts, slot)
		sp.End()
		if err != nil {
			return nil, err
		}
		if res.Final != nil {
			if sink == nil {
				return res.Final, nil
			}
			for _, r := range res.Final.Rows {
				sink.Row(r)
			}
			return relation.New("", prog.Final.Schema), nil
		}
		res.Bind(ctx)
	}
	sp := qc.Tracer.Begin("final", trace.TidDriver)
	defer sp.End()
	if sink == nil {
		return exec.Query(prog.Final, ctx)
	}
	if err := exec.Run(prog.Final, ctx, sink); err != nil {
		return nil, err
	}
	return relation.New("", prog.Final.Schema), nil
}

// RunClique evaluates just the recursive clique of a program, returning the
// per-view fixpoint relations (used by the PreM checker and benchmarks).
func (e *Engine) RunClique(prog *analyze.Program) (*fixpoint.Result, error) {
	if prog.Clique == nil || len(prog.Clique.Views) == 0 {
		return nil, fmt.Errorf("rasql: statement has no recursive clique")
	}
	qc := e.cluster.NewQuery(e.Tracer())
	defer qc.Finish()
	res, err := e.runClique(qc, prog.Clique, nil, exec.NewContext(), nil, nil)
	qc.SetErr(err)
	return res, err
}

// runClique evaluates a clique. The distributed engine also runs final, the
// program's final query, as its final stage when it can (Result.Final); a
// nil final returns the views.
func (e *Engine) runClique(qc *cluster.QueryContext, clique *analyze.Clique, final *analyze.Query, ctx *exec.Context, opts *ExecOptions, slot *fixpoint.BaseSlot) (*fixpoint.Result, error) {
	opt := e.cfg.Fixpoint
	if qc.Tracer != nil {
		opt.Tracer = qc.Tracer
	}
	// The caller's context rides the query context down to the fixpoint
	// drivers, which poll it at iteration boundaries.
	opt.Context = qc.Context()
	if opts != nil {
		if opts.Mode != "" {
			m, k, err := fixpoint.ParseEvalMode(opts.Mode)
			if err != nil {
				return nil, err
			}
			opt.Mode, opt.Staleness = m, k
		}
		if opts.MaxIterations > 0 {
			opt.MaxIterations = opts.MaxIterations
		}
	}
	// The local engine runs outside the cluster, so its iterations are
	// counted here, as the distributed drivers count theirs.
	local := func() (*fixpoint.Result, error) {
		res, err := fixpoint.Local(clique, ctx, opt.Options)
		if res != nil {
			qc.Metrics.Iterations.Add(int64(res.Iterations))
		}
		return res, err
	}
	if e.cfg.ForceLocal {
		qc.SetMode("local", "")
		return local()
	}
	res, err := fixpoint.DistributedShared(clique, final, ctx, qc, opt, slot)
	if err == nil {
		return res, nil
	}
	var nd *fixpoint.ErrNotDistributable
	if errors.As(err, &nd) {
		// Mutual recursion and non-linear rules run on the exact local
		// engine — the distributed engine covers the linear fragment the
		// paper benchmarks.
		qc.SetMode("local", nd.Reason)
		return local()
	}
	return nil, err
}
