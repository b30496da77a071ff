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
	// defaults; StageCombination defaults to on unless DisableDefaults.
	Fixpoint fixpoint.DistOptions
	// ForceLocal always evaluates recursion with the single-threaded
	// reference engine.
	ForceLocal bool
	// Naive replaces semi-naive evaluation with naive re-derivation
	// (implies ForceLocal; kept for the paper's Algorithm 1/2 baseline).
	Naive bool
	// RawOptimizations keeps every optimization flag exactly as given
	// instead of applying the RaSQL defaults (stage combination on,
	// broadcast compression on).
	RawOptimizations bool
}

// Engine is a RaSQL session: a catalog of base tables plus a configured
// execution environment. An Engine is safe for concurrent use: each query
// runs under its own per-query cluster context (tracer, counters, chaos
// injector) and analyzes against a snapshot-isolated clone of the session
// catalog, so any number of goroutines may call Exec/Query/Run on one
// Engine at the same time. Catalog registrations commit under the catalog's
// own lock.
type Engine struct {
	cfg     Config
	cat     *catalog.Catalog
	cluster *cluster.Cluster
	// obs is the engine's metrics recorder: every finished query folds its
	// QueryStats into the registry histograms, the recent-query ring and
	// (when attached) the structured query log.
	obs *obs.Recorder

	// mu guards the engine-attached tracer; queries snapshot it when they
	// start, so SetTracer mid-query affects only later queries.
	mu sync.RWMutex
	//rasql:guardedby=mu
	tracer *trace.Tracer
}

// New creates an engine. Unless cfg.RawOptimizations is set, the paper's
// default optimizations are switched on: stage combination and compressed
// broadcast.
func New(cfg Config) *Engine {
	if !cfg.RawOptimizations {
		cfg.Fixpoint.StageCombination = true
		cfg.Cluster.CompressBroadcast = true
	}
	if cfg.Naive {
		cfg.ForceLocal = true
		cfg.Fixpoint.Naive = true
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
// histograms, the recent-query ring and the Prometheus registry. The recorder
// lives as long as the engine and is safe for concurrent use.
func (e *Engine) Observability() *obs.Recorder { return e.obs }

// ResetMetrics zeroes the cluster counters.
func (e *Engine) ResetMetrics() { e.cluster.Metrics.Reset() }

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
	// per-query execution stats to their responses without racing the
	// recorder's ring.
	Stats *obs.QueryStats
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

// exec runs a script under one per-query cluster context. Analysis reads a
// snapshot-isolated clone of the session catalog; CREATE VIEW registers
// into the snapshot (visible to later statements of the same script) and
// commits to the session with replace semantics, so re-running a script —
// sequentially or from concurrent goroutines — stays idempotent.
func (e *Engine) exec(qc *cluster.QueryContext, src string, opts *ExecOptions) (*relation.Relation, error) {
	tr := qc.Tracer
	sp := tr.Begin("parse", trace.TidDriver)
	stmts, err := parser.Parse(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	cat := e.cat.Clone()
	var last *relation.Relation
	for _, s := range stmts {
		if cv, ok := s.(*ast.CreateView); ok {
			v := &catalog.ViewDef{Name: cv.Name, Columns: cv.Columns, Query: cv.Query}
			if err := cat.PutView(v); err != nil {
				return nil, err
			}
			if err := e.cat.PutView(v); err != nil {
				return nil, err
			}
			continue
		}
		sp = tr.Begin("analyze", trace.TidDriver)
		prog, err := analyze.Statement(s, cat)
		if err != nil {
			sp.End()
			return nil, err
		}
		opt := optimize.Program(prog)
		sp.End()
		last, err = e.run(qc, opt, opts, nil)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
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
// plan-hygiene lints). CREATE VIEW statements are registered into a
// throwaway copy of the catalog, so vetting never mutates the session. The
// merged report covers every query statement in the script.
func (e *Engine) Vet(src string) (*vet.Report, error) {
	sp := e.Tracer().Begin("vet", trace.TidDriver)
	defer sp.End()
	stmts, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	cat := e.cat.Clone()
	rep := &vet.Report{}
	for _, s := range stmts {
		if cv, ok := s.(*ast.CreateView); ok {
			if err := cat.RegisterView(&catalog.ViewDef{
				Name: cv.Name, Columns: cv.Columns, Query: cv.Query,
			}); err != nil {
				return nil, err
			}
			continue
		}
		prog, err := analyze.Statement(s, cat)
		if err != nil {
			return nil, err
		}
		rep.Merge(vet.Analyze(optimize.Program(prog)))
	}
	return rep, nil
}

// Run executes an analyzed program: the fixpoint for its recursive clique
// (if any), then the final query over the results.
func (e *Engine) Run(prog *analyze.Program) (*relation.Relation, error) {
	qc := e.cluster.NewQuery(e.Tracer())
	defer qc.Finish()
	rel, err := e.run(qc, prog, nil, nil)
	qc.SetErr(err)
	return rel, err
}

// run executes one program. A non-nil slot holds the program's shared
// physical base side (see Prepared); nil builds it for this query alone.
func (e *Engine) run(qc *cluster.QueryContext, prog *analyze.Program, opts *ExecOptions, slot *fixpoint.BaseSlot) (*relation.Relation, error) {
	ctx := exec.NewContext()
	if prog.Clique != nil && len(prog.Clique.Views) > 0 {
		sp := qc.Tracer.Begin("fixpoint", trace.TidDriver)
		res, err := e.runClique(qc, prog.Clique, ctx, opts, slot)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.Bind(ctx)
	}
	sp := qc.Tracer.Begin("final", trace.TidDriver)
	rel, err := exec.Query(prog.Final, ctx)
	sp.End()
	return rel, err
}

// RunClique evaluates just the recursive clique of a program, returning the
// per-view fixpoint relations (used by the PreM checker and benchmarks).
func (e *Engine) RunClique(prog *analyze.Program) (*fixpoint.Result, error) {
	if prog.Clique == nil || len(prog.Clique.Views) == 0 {
		return nil, fmt.Errorf("rasql: statement has no recursive clique")
	}
	qc := e.cluster.NewQuery(e.Tracer())
	defer qc.Finish()
	res, err := e.runClique(qc, prog.Clique, exec.NewContext(), nil, nil)
	qc.SetErr(err)
	return res, err
}

func (e *Engine) runClique(qc *cluster.QueryContext, clique *analyze.Clique, ctx *exec.Context, opts *ExecOptions, slot *fixpoint.BaseSlot) (*fixpoint.Result, error) {
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
	if e.cfg.ForceLocal {
		qc.SetMode("local", "")
		return fixpoint.Local(clique, ctx, opt.Options)
	}
	res, err := fixpoint.DistributedShared(clique, ctx, qc, opt, slot)
	if err == nil {
		return res, nil
	}
	var nd *fixpoint.ErrNotDistributable
	if errors.As(err, &nd) {
		// Mutual recursion and non-linear rules run on the exact local
		// engine — the distributed engine covers the linear fragment the
		// paper benchmarks.
		qc.SetMode("local", nd.Reason)
		return fixpoint.Local(clique, ctx, opt.Options)
	}
	return nil, err
}
