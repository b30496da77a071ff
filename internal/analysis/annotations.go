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
//	//rasql:deterministic           — anywhere in a file: the whole package
//	                                  opts into the simclock restriction
//	//rasql:noalloc                 — on a func: neither the body nor any
//	                                  transitively-called in-module function
//	                                  may reach a heap-allocation site
//	//rasql:allocpin <names>        — in a test file: the enclosing
//	                                  AllocsPerRun test/benchmark dynamically
//	                                  pins the named //rasql:noalloc
//	                                  functions (checked by `rasql-lint
//	                                  -allocdrift`)
//	//rasql:allow <names> -- <why>  — on or above a line: suppress the named
//	                                  (registered) analyzers there, with
//	                                  justification

// FuncAnnots are the annotations attached to one function declaration.
type FuncAnnots struct {
	// NoRetain lists the parameter names covered by //rasql:noretain;
	// nil means the function carries no noretain annotation, and an empty
	// non-nil slice covers every parameter.
	NoRetain []string
	// HasNoRetain distinguishes "annotated with no params" from
	// "not annotated".
	HasNoRetain bool
	// NoAlloc marks //rasql:noalloc: the function (and every in-module
	// function it transitively calls) must reach no allocation site.
	NoAlloc bool
}

func (a *FuncAnnots) empty() bool {
	return a == nil || (!a.HasNoRetain && !a.NoAlloc)
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
	// allows maps filename -> line -> analyzer names suppressed there.
	allows map[string]map[int][]string
	// malformed collects the allow comments the framework rejects,
	// already rendered as RL000 diagnostics.
	malformed []Diagnostic

	// The program-scope evidence below is recorded by the call-graph
	// Prepare hook (local entries carry a usable token.Pos) and merged from
	// dependency facts (position survives only as a string).

	// allocSites maps a function key to the potential heap allocations in
	// its own body; callEdges maps it to its static in-module call sites.
	// Together they form the call graph the noalloc analyzer walks.
	allocSites map[string][]AllocSite
	callEdges  map[string][]CallSite
	// localNoAlloc lists the //rasql:noalloc functions declared by locally
	// scanned syntax (never merged from facts), so program-scope checking
	// anchors each function's diagnostics in exactly one unit.
	localNoAlloc []string

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

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		funcs:         map[string]*FuncAnnots{},
		deterministic: map[string]bool{},
		allows:        map[string]map[int][]string{},
		allocSites:    map[string][]AllocSite{},
		callEdges:     map[string][]CallSite{},
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
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		ann := parseFuncAnnots(fd.Doc)
		if ann.empty() {
			continue
		}
		key := FuncKey(pkgPath, declRecvName(fd), fd.Name.Name)
		ix.funcs[key] = ann
		if ann.NoAlloc {
			ix.addLocalNoAlloc(key)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := strings.TrimSpace(c.Text)
			switch {
			case line == "//rasql:deterministic":
				ix.deterministic[pkgPath] = true
			case strings.HasPrefix(line, "//rasql:allow"):
				ix.recordAllow(fset, c)
			}
		}
	}
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
		case "noalloc":
			ann.NoAlloc = true
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
	AllocSites    map[string][]AllocSiteFact `json:"allocSites,omitempty"`
	CallEdges     map[string][]CallSiteFact  `json:"callEdges,omitempty"`
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
	f := Facts{Funcs: ix.funcs}
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
}

// MalformedAllows returns diagnostics for allow comments that lack their `-- justification` or name an unregistered analyzer, sorted by
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
