package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The annotation language. Annotations ride in ordinary comments so they
// survive gofmt and need no build-tag machinery:
//
//	//rasql:noretain buf            — on a func: the named slice params (all
//	                                  params when none are named) must not be
//	                                  retained anywhere heap-reachable
//	//rasql:pool-get                — on a func: it is a sync.Pool Get
//	                                  accessor; its result is a pooled value
//	//rasql:pool-put                — on a func: it is a sync.Pool Put
//	                                  accessor; its argument is recycled
//	//rasql:deterministic           — anywhere in a file: the whole package
//	                                  opts into the simclock restriction
//	//rasql:guardedby=<mutex>       — on a struct field: the field may only
//	                                  be accessed while the named
//	                                  sync.Mutex/RWMutex field of the same
//	                                  struct is held (read lock suffices
//	                                  for reads)
//	//rasql:locked=<mutex>          — on a method: callers must already
//	                                  hold the named mutex field of the
//	                                  receiver exclusively; the body is
//	                                  checked as if the lock were taken on
//	                                  entry
//	//rasql:noalloc                 — on a func: neither the body nor any
//	                                  transitively-called in-module function
//	                                  may reach a heap-allocation site
//	//rasql:lifecycle               — anywhere in a file: the whole package
//	                                  opts into the golifecycle goroutine
//	                                  accounting (engine packages are in by
//	                                  default)
//	//rasql:detach -- <why>         — on or above a `go` statement: the
//	                                  goroutine intentionally outlives its
//	                                  spawner (no WaitGroup join), with
//	                                  justification
//	//rasql:allocpin <names>        — in a test file: the enclosing
//	                                  AllocsPerRun test/benchmark dynamically
//	                                  pins the named //rasql:noalloc
//	                                  functions (checked by `rasql-lint
//	                                  -allocdrift`)
//	//rasql:allow <names> -- <why>  — on or above a line: suppress the named
//	                                  (registered) analyzers there, with
//	                                  justification
//
// Two kinds of shared mutable state are deliberately exempt from guardedby
// rather than annotated:
//
//   - package-level sync.Pool variables (the cluster's encBufPool): the
//     pool is its own synchronization — Get/Put are safe under any
//     interleaving, and the separate pooldiscipline analyzer enforces the
//     engine's stricter Get/Put pairing on top;
//   - write-only atomic sinks (the cluster's burnSink): an atomic value
//     that is only ever written and never read cannot produce an
//     observable race, so a guarding mutex would change nothing. The
//     engine uses only typed atomics (atomic.Uint64 and friends), which
//     have no plain spelling to mix up; go vet's copylocks check rejects
//     copies of them, and the -race suites catch any other unsynchronized
//     access.

// FuncAnnots are the annotations attached to one function declaration.
type FuncAnnots struct {
	// NoRetain lists the parameter names covered by //rasql:noretain;
	// nil means the function carries no noretain annotation, and an empty
	// non-nil slice covers every parameter.
	NoRetain []string
	// HasNoRetain distinguishes "annotated with no params" from
	// "not annotated".
	HasNoRetain bool
	// PoolGet and PoolPut mark sync.Pool accessor wrappers.
	PoolGet, PoolPut bool
	// Locked lists the receiver mutex fields named by //rasql:locked=;
	// callers must hold them exclusively and the body is checked with
	// them held.
	Locked []string
	// NoAlloc marks //rasql:noalloc: the function (and every in-module
	// function it transitively calls) must reach no allocation site.
	NoAlloc bool
}

func (a *FuncAnnots) empty() bool {
	return a == nil || (!a.HasNoRetain && !a.PoolGet && !a.PoolPut && len(a.Locked) == 0 && !a.NoAlloc)
}

// NoRetainCovers reports whether the annotation covers the parameter name.
func (a *FuncAnnots) NoRetainCovers(param string) bool {
	if a == nil || !a.HasNoRetain {
		return false
	}
	if len(a.NoRetain) == 0 {
		return true
	}
	for _, p := range a.NoRetain {
		if p == param {
			return true
		}
	}
	return false
}

// Index is the cross-package annotation table: function annotations keyed
// by qualified name, package-level determinism opt-ins, and per-line
// suppressions. In whole-program mode it is built from every loaded
// package's syntax; in unitchecker mode the function and package tables of
// dependencies arrive as vetx facts.
type Index struct {
	funcs         map[string]*FuncAnnots
	deterministic map[string]bool
	// fields maps "pkgpath.Struct.Field" to the guarding mutex field name
	// from //rasql:guardedby annotations.
	fields map[string]string
	// allows maps filename -> line -> analyzer names suppressed there.
	allows map[string]map[int][]string
	// malformed collects the allow and detach comments the framework
	// rejects, already rendered as RL000 diagnostics.
	malformed []Diagnostic
	// detaches maps filename -> line -> true for //rasql:detach comments
	// (the golifecycle escape hatch; covers the comment line and the next).
	detaches map[string]map[int]bool
	// lifecycle holds packages opted into golifecycle via //rasql:lifecycle
	// (engine packages are scoped by LifecyclePrefixes instead).
	lifecycle map[string]bool

	// The program-scope evidence below is recorded by the call-graph
	// Prepare hook (local entries carry a usable token.Pos) and merged from
	// dependency facts (position survives only as a string).

	// allocSites maps a function key to the potential heap allocations in
	// its own body; callEdges maps it to its static in-module call sites.
	// Together they form the call graph the noalloc analyzer walks.
	allocSites map[string][]AllocSite
	callEdges  map[string][]CallSite
	// wgDone summarizes, per function key, the WaitGroup classes the
	// function calls Done on — the one-hop evidence golifecycle uses to
	// account `go worker(&wg)`-shaped spawns.
	wgDone map[string]*WgSummary
	// localNoAlloc lists the //rasql:noalloc functions declared by locally
	// scanned syntax (never merged from facts), so program-scope checking
	// anchors each function's diagnostics in exactly one unit.
	localNoAlloc []string
	// preparedCG guards the shared call-graph Prepare, which both noalloc
	// and golifecycle declare: once per package, not once per analyzer.
	preparedCG map[string]bool

	siteSeen map[string]bool
}

// AllocSite is one potential heap allocation recorded by the call-graph
// Prepare pass, keyed under its enclosing function. What describes the
// construct conservatively classified as allocating.
type AllocSite struct {
	What   string
	PosStr string
	Pos    token.Pos
	Local  bool
}

// CallSite is one static call to an in-module function, the edge the
// noalloc analyzer follows transitively.
type CallSite struct {
	// Callee is the target's FuncKey.
	Callee string
	PosStr string
	Pos    token.Pos
	Local  bool
}

// WgSummary records the sync.WaitGroup classes a function calls Done on
// directly in its own body — deferred Dones run on every exit path
// including panics, plain Dones only on normal fallthrough.
type WgSummary struct {
	DeferredDone []string `json:"deferredDone,omitempty"`
	PlainDone    []string `json:"plainDone,omitempty"`
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		funcs:         map[string]*FuncAnnots{},
		deterministic: map[string]bool{},
		fields:        map[string]string{},
		allows:        map[string]map[int][]string{},
		detaches:      map[string]map[int]bool{},
		lifecycle:     map[string]bool{},
		allocSites:    map[string][]AllocSite{},
		callEdges:     map[string][]CallSite{},
		wgDone:        map[string]*WgSummary{},
		preparedCG:    map[string]bool{},
		siteSeen:      map[string]bool{},
	}
}

// FuncKey builds the index key for a function: pkgpath.Name, or
// pkgpath.Recv.Name for methods (pointer receivers are flattened).
func FuncKey(pkgPath, recv, name string) string {
	if recv != "" {
		return pkgPath + "." + recv + "." + name
	}
	return pkgPath + "." + name
}

// ObjKey builds the index key for a resolved function object.
func ObjKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return FuncKey(fn.Pkg().Path(), recv, fn.Name())
}

// FuncAnnots returns the annotations for a resolved function, or nil.
func (ix *Index) FuncAnnots(fn *types.Func) *FuncAnnots {
	if fn == nil {
		return nil
	}
	return ix.funcs[ObjKey(fn)]
}

// DeclAnnots returns the annotations recorded for a declaration key, or nil.
func (ix *Index) DeclAnnots(key string) *FuncAnnots { return ix.funcs[key] }

// Deterministic reports whether the package opted into (or was listed for)
// the simclock restriction.
func (ix *Index) Deterministic(pkgPath string) bool { return ix.deterministic[pkgPath] }

// GuardedBy returns the guarding mutex field name for a field key
// ("pkgpath.Struct.Field"), or "" when the field carries no annotation.
func (ix *Index) GuardedBy(fieldKey string) string { return ix.fields[fieldKey] }

// AddAllocSite records one potential allocation inside the keyed function,
// deduplicated by position and description (facts are cumulative, so the
// same site can arrive through several dependency paths).
func (ix *Index) AddAllocSite(funcKey string, s AllocSite) {
	k := "alloc\x00" + funcKey + "\x00" + s.PosStr + "\x00" + s.What
	if ix.siteSeen[k] {
		return
	}
	ix.siteSeen[k] = true
	ix.allocSites[funcKey] = append(ix.allocSites[funcKey], s)
}

// AllocSites returns the allocation sites recorded for a function key.
func (ix *Index) AllocSites(funcKey string) []AllocSite { return ix.allocSites[funcKey] }

// AddCallEdge records one static in-module call, deduplicated by caller,
// callee and position.
func (ix *Index) AddCallEdge(funcKey string, c CallSite) {
	k := "cedge\x00" + funcKey + "\x00" + c.Callee + "\x00" + c.PosStr
	if ix.siteSeen[k] {
		return
	}
	ix.siteSeen[k] = true
	ix.callEdges[funcKey] = append(ix.callEdges[funcKey], c)
}

// CallEdges returns the static in-module call sites recorded for a
// function key.
func (ix *Index) CallEdges(funcKey string) []CallSite { return ix.callEdges[funcKey] }

// SetWgSummary records a function's WaitGroup.Done summary (first writer
// wins; merged facts never overwrite local evidence recorded earlier).
func (ix *Index) SetWgSummary(funcKey string, s *WgSummary) {
	if _, ok := ix.wgDone[funcKey]; !ok && s != nil {
		ix.wgDone[funcKey] = s
	}
}

// WgSummary returns a function's WaitGroup.Done summary, nil when it has
// none (or is unknown).
func (ix *Index) WgSummary(funcKey string) *WgSummary { return ix.wgDone[funcKey] }

// addLocalNoAlloc registers a locally-declared //rasql:noalloc function for
// program-scope checking. Never exported as a fact: each unit checks (and
// anchors diagnostics for) its own declarations only.
func (ix *Index) addLocalNoAlloc(funcKey string) {
	k := "lna\x00" + funcKey
	if ix.siteSeen[k] {
		return
	}
	ix.siteSeen[k] = true
	ix.localNoAlloc = append(ix.localNoAlloc, funcKey)
}

// LocalNoAlloc lists the //rasql:noalloc functions declared by locally
// scanned syntax, in scan order.
func (ix *Index) LocalNoAlloc() []string { return ix.localNoAlloc }

// callGraphPrepare reports whether the shared call-graph Prepare still
// needs to run for the package, marking it done. Both analyzers built on
// the graph declare the same Prepare hook; the first call wins.
func (ix *Index) callGraphPrepare(pkgPath string) bool {
	if ix.preparedCG[pkgPath] {
		return false
	}
	ix.preparedCG[pkgPath] = true
	return true
}

// Detached reports whether a `go` statement at the position carries (or
// follows) a //rasql:detach justification.
func (ix *Index) Detached(pos token.Position) bool {
	return ix.detaches[pos.Filename][pos.Line]
}

// Lifecycle reports whether the package opted into golifecycle checking
// via a //rasql:lifecycle file comment.
func (ix *Index) Lifecycle(pkgPath string) bool { return ix.lifecycle[pkgPath] }

// ScanPackage records every //rasql: annotation in the files of one
// package: function annotations, package determinism opt-ins, and
// per-line allow suppressions.
func (ix *Index) ScanPackage(fset *token.FileSet, pkgPath string, files []*ast.File) {
	for _, f := range files {
		ix.scanFile(fset, pkgPath, f)
	}
}

func (ix *Index) scanFile(fset *token.FileSet, pkgPath string, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Doc == nil {
				continue
			}
			ann := parseFuncAnnots(d.Doc)
			if ann.empty() {
				continue
			}
			key := FuncKey(pkgPath, declRecvName(d), d.Name.Name)
			ix.funcs[key] = ann
			if ann.NoAlloc {
				ix.addLocalNoAlloc(key)
			}
		case *ast.GenDecl:
			ix.scanTypeDecl(pkgPath, d)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := strings.TrimSpace(c.Text)
			switch {
			case line == "//rasql:deterministic":
				ix.deterministic[pkgPath] = true
			case line == "//rasql:lifecycle":
				ix.lifecycle[pkgPath] = true
			case strings.HasPrefix(line, "//rasql:allow"):
				ix.recordAllow(fset, c)
			case strings.HasPrefix(line, "//rasql:detach"):
				ix.recordDetach(fset, c)
			}
		}
	}
}

// scanTypeDecl records //rasql:guardedby annotations on struct fields.
// The annotation rides in the field's doc comment (the line above) or its
// trailing line comment.
func (ix *Index) scanTypeDecl(pkgPath string, d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			mu := guardedByOf(field.Doc)
			if mu == "" {
				mu = guardedByOf(field.Comment)
			}
			if mu == "" {
				continue
			}
			for _, name := range field.Names {
				ix.fields[FieldKey(pkgPath, ts.Name.Name, name.Name)] = mu
			}
		}
	}
}

func guardedByOf(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		line := strings.TrimSpace(c.Text)
		if mu, ok := strings.CutPrefix(line, "//rasql:guardedby="); ok {
			return strings.TrimSpace(mu)
		}
	}
	return ""
}

// FieldKey builds the index key for a struct field annotation.
func FieldKey(pkgPath, structName, fieldName string) string {
	return pkgPath + "." + structName + "." + fieldName
}

// declRecvName extracts the receiver type name of a declaration
// ("" for plain functions).
func declRecvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func parseFuncAnnots(doc *ast.CommentGroup) *FuncAnnots {
	ann := &FuncAnnots{}
	for _, c := range doc.List {
		line := strings.TrimSpace(c.Text)
		rest, ok := strings.CutPrefix(line, "//rasql:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "noretain":
			ann.HasNoRetain = true
			ann.NoRetain = append(ann.NoRetain, fields[1:]...)
		case "pool-get":
			ann.PoolGet = true
		case "pool-put":
			ann.PoolPut = true
		case "noalloc":
			ann.NoAlloc = true
		default:
			if mu, ok := strings.CutPrefix(fields[0], "locked="); ok && mu != "" {
				ann.Locked = append(ann.Locked, mu)
			}
		}
	}
	return ann
}

// recordAllow parses one //rasql:allow comment. The comment suppresses the
// named analyzers on its own line (end-of-line form) and on the following
// line (standalone form). Every name must be a registered analyzer, so an
// allow cannot outlive the check it waives.
func (ix *Index) recordAllow(fset *token.FileSet, c *ast.Comment) {
	body := strings.TrimPrefix(strings.TrimSpace(c.Text), "//rasql:allow")
	names, reason, found := strings.Cut(body, "--")
	analyzers := strings.Fields(names)
	p := fset.Position(c.Pos())
	if !found || strings.TrimSpace(reason) == "" || len(analyzers) == 0 {
		ix.reject(p, "//rasql:allow needs analyzer names and a `-- justification`")
		return
	}
	for _, name := range analyzers {
		if !registered(name) {
			ix.reject(p, fmt.Sprintf("//rasql:allow names %q, which is not a registered analyzer", name))
			return
		}
	}
	lines := ix.allows[p.Filename]
	if lines == nil {
		lines = map[int][]string{}
		ix.allows[p.Filename] = lines
	}
	lines[p.Line] = append(lines[p.Line], analyzers...)
	lines[p.Line+1] = append(lines[p.Line+1], analyzers...)
}

// registered reports whether name is an analyzer of the suite.
func registered(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// reject records a malformed annotation as an RL000 diagnostic.
func (ix *Index) reject(p token.Position, msg string) {
	ix.malformed = append(ix.malformed, Diagnostic{Pos: p, Analyzer: "rasql-lint", Code: "RL000", Message: msg})
}

// recordDetach parses one //rasql:detach comment. Like allow, it covers
// its own line (end-of-line form) and the following line (standalone
// form), and the `-- justification` is mandatory.
func (ix *Index) recordDetach(fset *token.FileSet, c *ast.Comment) {
	body := strings.TrimPrefix(strings.TrimSpace(c.Text), "//rasql:detach")
	_, reason, found := strings.Cut(body, "--")
	p := fset.Position(c.Pos())
	if !found || strings.TrimSpace(reason) == "" {
		ix.reject(p, "//rasql:detach needs a `-- justification`")
		return
	}
	lines := ix.detaches[p.Filename]
	if lines == nil {
		lines = map[int]bool{}
		ix.detaches[p.Filename] = lines
	}
	lines[p.Line] = true
	lines[p.Line+1] = true
}

// Allowed reports whether a diagnostic of the named analyzer at the given
// position is suppressed by an allow comment.
func (ix *Index) Allowed(analyzer string, pos token.Position) bool {
	for _, a := range ix.allows[pos.Filename][pos.Line] {
		if a == analyzer {
			return true
		}
	}
	return false
}

// Facts is the serializable subset of the index exchanged between
// unitchecker runs: the annotations and program-scope evidence a package
// exports to its dependents. Facts are cumulative — a unit re-exports its
// dependencies' facts alongside its own, so evidence reaches indirect
// dependents no matter how cmd/go wires the vetx graph.
type Facts struct {
	Funcs         map[string]*FuncAnnots     `json:"funcs,omitempty"`
	Deterministic []string                   `json:"deterministic,omitempty"`
	Fields        map[string]string          `json:"fields,omitempty"`
	AllocSites    map[string][]AllocSiteFact `json:"allocSites,omitempty"`
	CallEdges     map[string][]CallSiteFact  `json:"callEdges,omitempty"`
	WgDone        map[string]*WgSummary      `json:"wgDone,omitempty"`
}

// AllocSiteFact and CallSiteFact are the serialized forms of AllocSite and
// CallSite (positions survive only as strings across the facts boundary).
type AllocSiteFact struct {
	What string `json:"what"`
	Pos  string `json:"pos"`
}

type CallSiteFact struct {
	Callee string `json:"callee"`
	Pos    string `json:"pos"`
}

// ExportFacts extracts the cumulative facts held by the index: this
// package's annotations and evidence plus everything merged from its
// dependencies.
func (ix *Index) ExportFacts(pkgPath string) Facts {
	f := Facts{Funcs: ix.funcs, Fields: ix.fields}
	for p := range ix.deterministic {
		f.Deterministic = append(f.Deterministic, p)
	}
	sort.Strings(f.Deterministic)
	f.AllocSites = map[string][]AllocSiteFact{}
	for k, sites := range ix.allocSites {
		for _, s := range sites {
			f.AllocSites[k] = append(f.AllocSites[k], AllocSiteFact{What: s.What, Pos: s.PosStr})
		}
	}
	f.CallEdges = map[string][]CallSiteFact{}
	for k, edges := range ix.callEdges {
		for _, c := range edges {
			f.CallEdges[k] = append(f.CallEdges[k], CallSiteFact{Callee: c.Callee, Pos: c.PosStr})
		}
	}
	f.WgDone = ix.wgDone
	return f
}

// MergeFacts folds a dependency's exported facts into the index. Merged
// evidence is non-local: it anchors no diagnostics itself but completes
// graphs and cross-references for the local package's reports.
func (ix *Index) MergeFacts(f Facts) {
	for k, v := range f.Funcs {
		ix.funcs[k] = v
	}
	for _, p := range f.Deterministic {
		ix.deterministic[p] = true
	}
	for k, v := range f.Fields {
		ix.fields[k] = v
	}
	for k, sites := range f.AllocSites {
		for _, s := range sites {
			ix.AddAllocSite(k, AllocSite{What: s.What, PosStr: s.Pos})
		}
	}
	for k, edges := range f.CallEdges {
		for _, c := range edges {
			ix.AddCallEdge(k, CallSite{Callee: c.Callee, PosStr: c.Pos})
		}
	}
	for k, s := range f.WgDone {
		ix.SetWgSummary(k, s)
	}
}

// MalformedAllows returns diagnostics for allow and detach comments that
// lack their `-- justification` or name an unregistered analyzer, sorted by
// position.
func (ix *Index) MalformedAllows() []Diagnostic {
	out := append([]Diagnostic(nil), ix.malformed...)
	sort.Slice(out, func(i, j int) bool { return positionLess(out[i].Pos, out[j].Pos) })
	return out
}

func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
