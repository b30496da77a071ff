package rasql

import (
	"context"
	"errors"
	"fmt"

	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/optimize"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/trace"
)

// ErrNotPreparable reports a script that cannot be compiled once and reused:
// CREATE VIEW commits DDL, so its effect depends on when it runs, not only
// on the catalog snapshot it was compiled against.
var ErrNotPreparable = errors.New("rasql: scripts containing CREATE VIEW cannot be prepared")

// ErrPlanStale reports an ExecPrepared against an engine whose catalog has
// committed DDL since the plan was compiled. Callers holding plan caches
// (the rasqld server) treat it as a miss and re-prepare.
var ErrPlanStale = errors.New("rasql: prepared plan is stale (catalog changed since Prepare)")

// Prepared is a compiled script: parsed, analyzed and optimized once against
// a snapshot-isolated catalog clone. A Prepared is safe to execute from any
// number of goroutines concurrently — the compiled programs are read-only;
// all mutable execution state is per-query.
//
// It also owns one physical base side per program (plan, seed partitions,
// co-partitioned and broadcast tables): the first execution on the engine
// that prepared it builds and publishes it, and later executions reuse it.
// The base is immutable once published and is freed with the Prepared, so a
// plan cache bounds it with the plans it holds.
type Prepared struct {
	src     string
	progs   []*analyze.Program
	version uint64
	eng     *Engine
	// bases[i] is progs[i]'s physical base side, built lazily.
	bases []fixpoint.BaseSlot
}

// CatalogVersion returns the catalog DDL version the plan was compiled
// against (the plan-cache key component).
func (p *Prepared) CatalogVersion() uint64 { return p.version }

// Source returns the script text the plan was compiled from.
func (p *Prepared) Source() string { return p.src }

// Statements returns the number of compiled query statements.
func (p *Prepared) Statements() int { return len(p.progs) }

// CatalogVersion returns the session catalog's DDL commit counter: it bumps
// on every table or view registration, replacement or drop, so equal
// versions mean plans compiled earlier still resolve identically.
func (e *Engine) CatalogVersion() uint64 { return e.cat.Version() }

// Prepare compiles a script — parse, analyze, optimize — against a snapshot
// of the current catalog and returns the reusable compiled plan. Scripts
// containing CREATE VIEW return ErrNotPreparable; scripts with no query
// statement error too (there is nothing to execute repeatedly).
func (e *Engine) Prepare(src string) (*Prepared, error) {
	stmts, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	cat := e.cat.Clone()
	p := &Prepared{src: src, version: cat.Version(), eng: e}
	for _, s := range stmts {
		if _, ok := s.(*ast.CreateView); ok {
			return nil, ErrNotPreparable
		}
		prog, err := analyze.Statement(s, cat)
		if err != nil {
			return nil, err
		}
		p.progs = append(p.progs, optimize.Program(prog))
	}
	if len(p.progs) == 0 {
		return nil, fmt.Errorf("rasql: script contained no query statement")
	}
	p.bases = make([]fixpoint.BaseSlot, len(p.progs))
	return p, nil
}

// ExecPrepared runs a compiled plan under ctx, returning the last
// statement's result. It refuses a plan whose catalog version no longer
// matches the session catalog (ErrPlanStale): a cached plan is never served
// against a changed catalog.
func (e *Engine) ExecPrepared(ctx context.Context, p *Prepared, opts *ExecOptions) (*relation.Relation, error) {
	if p.version != e.cat.Version() {
		return nil, ErrPlanStale
	}
	qc := e.cluster.NewQuery(opts.tracer(e))
	qc.SetContext(ctx)
	defer qc.Finish()
	var last *relation.Relation
	var err error
	for i, prog := range p.progs {
		// The base was built from the preparing engine's tables and
		// configuration; any other engine builds its own.
		var slot *fixpoint.BaseSlot
		if p.eng == e {
			slot = &p.bases[i]
		}
		sp := qc.Tracer.Begin("prepared", trace.TidDriver)
		last, err = e.run(qc, prog, opts, slot)
		sp.End()
		if err != nil {
			break
		}
	}
	qc.SetErr(err)
	if opts != nil && opts.Stats != nil {
		qc.Finish()
		*opts.Stats = qc.Stats(qc.Metrics.Snapshot())
	}
	if err != nil {
		return nil, err
	}
	return last, nil
}
