package analysis

import (
	"go/token"
	"sort"
)

// BuildIndex scans every loaded package's annotations into one
// whole-program index.
func BuildIndex(fset *token.FileSet, pkgs []*LoadedPackage) *Index {
	ix := NewIndex()
	for _, p := range pkgs {
		ix.ScanPackage(fset, p.ImportPath, p.Files)
	}
	return ix
}

// PreparePackage runs every Prepare hook over one package, recording
// program-scope evidence into the index for the program-scope hooks.
func PreparePackage(fset *token.FileSet, pkg *LoadedPackage, ix *Index, analyzers []*Analyzer) {
	for _, a := range analyzers {
		if a.Prepare == nil {
			continue
		}
		a.Prepare(&Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Index:    ix,
			report:   func(token.Pos, string) {},
		})
	}
}

// RunPackage executes the per-package analyzers over one package,
// returning the surviving (non-suppressed) diagnostics unsorted.
func RunPackage(fset *token.FileSet, pkg *LoadedPackage, ix *Index, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Index:    ix,
		}
		pass.report = reportInto(fset, ix, a, &out)
		a.Run(pass)
	}
	return out
}

// RunProgramAnalyzers executes the program-scope hooks once against the
// fully merged index. Diagnostics anchor at positions recorded by Prepare.
func RunProgramAnalyzers(fset *token.FileSet, ix *Index, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Index: ix}
		pass.report = reportInto(fset, ix, a, &out)
		a.RunProgram(pass)
	}
	return out
}

func reportInto(fset *token.FileSet, ix *Index, a *Analyzer, out *[]Diagnostic) func(token.Pos, string) {
	return func(pos token.Pos, msg string) {
		p := fset.Position(pos)
		if ix.Allowed(a.Name, p) {
			return
		}
		*out = append(*out, Diagnostic{Pos: p, Analyzer: a.Name, Code: a.Code, Message: msg})
	}
}

// Run executes the analyzers over every package against a whole-program
// annotation index, returning diagnostics sorted by position. Malformed
// allow comments are reported alongside analyzer findings.
func Run(fset *token.FileSet, pkgs []*LoadedPackage, analyzers []*Analyzer) []Diagnostic {
	ix := BuildIndex(fset, pkgs)
	out := ix.MalformedAllows()
	for _, p := range pkgs {
		PreparePackage(fset, p, ix, analyzers)
	}
	for _, p := range pkgs {
		out = append(out, RunPackage(fset, p, ix, analyzers)...)
	}
	out = append(out, RunProgramAnalyzers(fset, ix, analyzers)...)
	sort.Slice(out, func(i, j int) bool { return positionLess(out[i].Pos, out[j].Pos) })
	return out
}
