// Package analysis implements rasql-lint: source-level static analysis
// passes that turn the engine's unsafe-by-convention invariants into
// machine-checked properties, complementing the plan-level analyzer in
// internal/sql/vet. Where `rasql vet` certifies properties of a query plan
// (PreM, termination, co-partitioning), the passes here certify properties
// of the engine source itself:
//
//   - simclock: no wall-clock or global math/rand calls in deterministic
//     engine packages, so SimNanos and query results are reproducible;
//   - noretain: functions annotated //rasql:noretain never store their
//     parameter-derived slices into heap-reachable locations, which is what
//     makes immediate buffer recycling behind them safe;
//   - noalloc: functions annotated //rasql:noalloc (the data plane's hot
//     path) reach no heap-allocation site, transitively through in-module
//     calls, on a whole-program call graph with a conservative escape
//     classifier.
//
// Mutex discipline and goroutine joins are not checked here: the -race
// suites, go vet's copylocks check and the goroutine-baseline tests
// (TestCancelAllEvaluatorModes, TestServerDrain) carry them. Nor is pool
// discipline: the engine declares no sync.Pool — wire bytes live in owned
// send memory — and the lint job fails on any non-test file that does.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is built on the standard library alone:
// packages are enumerated with `go list -deps -export -json` and
// type-checked with go/types, importing dependencies from compiler export
// data. cmd/rasql-lint drives the passes both standalone (`rasql-lint
// ./...`) and as a `go vet -vettool=` unitchecker.
//
// Findings are suppressed with a justification comment on (or immediately
// above) the offending line:
//
//	b.rows = types.CloneRows(rows) //rasql:allow noalloc -- the hand-over copy a local batch owns
//
// The justification after `--` is mandatory, and every name must be a
// registered analyzer; a bare allow, or one naming an unknown analyzer, is
// itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one invariant checker. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer so the passes could migrate to a
// vendored x/tools multichecker without rewriting.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rasql:allow comments.
	Name string
	// Code is the stable diagnostic code (RL001…) carried into -json
	// output so downstream tooling survives message-text changes.
	Code string
	// Doc describes the invariant the analyzer enforces.
	Doc string
	// Run executes the analyzer over one package. Nil for analyzers that
	// only report at program scope.
	Run func(*Pass)
	// Prepare, if set, runs over every package before any reporting pass
	// and records cross-package evidence (call-graph edges, allocation
	// sites) into the pass Index. In unitchecker mode it runs over
	// the current unit on top of the dependency facts, and what it records
	// is exported as this unit's facts.
	Prepare func(*Pass)
	// RunProgram, if set, runs once per whole-program load (or once per
	// unit under go vet) after every Prepare, with the Index holding the
	// merged evidence. The pass carries no single package's syntax:
	// Files/Pkg/Info are nil and diagnostics anchor at positions recorded
	// during Prepare.
	RunProgram func(*Pass)
}

// Pass carries one package's syntax and type information to an analyzer,
// plus the cross-package annotation index.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the package's type-checking results.
	Info *types.Info
	// Index resolves //rasql: annotations, including those exported by
	// dependency packages (via whole-program loading or vetx facts).
	Index *Index

	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Code     string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Simclock, NoRetain, NoAlloc}
}
