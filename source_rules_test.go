package rasql_test

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// deterministicDirs are the engine packages (and their subpackages) whose
// results and simulated clock (SimNanos) must be a pure function of their
// inputs: no host-clock reads and no process-global math/rand source.
var deterministicDirs = []string{"internal/cluster", "internal/fixpoint", "internal/sql", "internal/types", "internal/gen"}

// hostClockReads are the only functions in a deterministic package allowed
// to read the host clock: the cluster's metrics stopwatch, whose readings
// feed SimNanos and StageWallNanos and never results or placement.
var hostClockReads = map[string]bool{
	"internal/cluster.startStopwatch":         true,
	"internal/cluster.stopwatch.elapsedNanos": true,
}

// hostClockFuncs read or wait on the host clock. Conversions and arithmetic
// (time.Duration, t.Sub) are deterministic given their inputs.
var hostClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
}

// seededRandFuncs construct explicitly seeded generators; every other
// package-level math/rand function draws from the shared global source.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// TestSourceRules holds the module's own Go source (outside dot-directories
// and testdata) to four rules:
//   - a non-test file of a deterministic package calls no host-clock time
//     function (hostClockReads excepted) and no package-level math/rand
//     function but the seeded constructors;
//   - no non-test file imports unsafe, so a decoder can only keep its input
//     by copying it (FuzzDecodeRowsAppend checks that it does not keep it);
//   - no non-test file names sync.Pool: wire bytes live in send memory the
//     plan owns, whose size no garbage collection changes (DESIGN.md §6);
//   - every file is gofmt-formatted.
func TestSourceRules(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if formatted, err := format.Source(src); err != nil || !bytes.Equal(formatted, src) {
			t.Errorf("%s: not gofmt-formatted (gofmt -w %s)", p, p)
		}
		if strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			return err
		}
		checkSourceFile(t, fset, filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func checkSourceFile(t *testing.T, fset *token.FileSet, p string, f *ast.File) {
	dir := path.Dir(p)
	deterministic := false
	for _, d := range deterministicDirs {
		deterministic = deterministic || dir == d || strings.HasPrefix(dir, d+"/")
	}
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		if ip == "unsafe" {
			t.Errorf("%s: imports unsafe", fset.Position(imp.Pos()))
		}
		name := strings.TrimSuffix(ip, "/v2")
		name = name[strings.LastIndex(name, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = ip
	}
	for _, decl := range f.Decls {
		fn := dir + "."
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = funcID(dir, fd)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkgOf(imports, n) == "sync" && n.Sel.Name == "Pool" {
					t.Errorf("%s: sync.Pool in non-test code; wire bytes live in plan-owned send memory", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !deterministic {
					break
				}
				pos, name := fset.Position(n.Pos()), sel.Sel.Name
				switch ip := pkgOf(imports, sel); {
				case ip == "time" && hostClockFuncs[name] && !hostClockReads[fn]:
					t.Errorf("%s: time.%s reads the host clock in deterministic package %s", pos, name, dir)
				case (ip == "math/rand" || ip == "math/rand/v2") && !seededRandFuncs[name]:
					t.Errorf("%s: %s.%s draws from the global source in deterministic package %s; use a seeded *rand.Rand", pos, ip, name, dir)
				}
			}
			return true
		})
	}
}

// pkgOf returns the import path sel qualifies (pkg.Name), or "".
func pkgOf(imports map[string]string, sel *ast.SelectorExpr) string {
	if x, ok := sel.X.(*ast.Ident); ok {
		return imports[x.Name]
	}
	return ""
}

// testOnlyAllowed are the exported functions and methods under internal/
// that no other non-test file names, each with the reason it stays.
// TestNoTestOnlyCode fails on an entry that no longer needs to be here.
var testOnlyAllowed = map[string]string{
	"internal/fixpoint.BaseSlot.Fingerprint": "export_test.go reads it to check that prepared plans share one base side",
	"internal/fixpoint.keyedRows.Less":       "sort.Interface: sort.Sort calls it",
	"internal/fixpoint.ErrCancelled.Unwrap":  "errors.Is and errors.As call it",
}

// TestNoTestOnlyCode holds internal/ to shipping no code that only tests
// reach: every exported function or method declared in a non-test file
// under internal/ has its name appear as an identifier in some non-test
// file, outside its own declaration. Every file under benchmarks/ counts,
// its tests too: the benchmark is a caller in its own right. Names are
// matched with go/parser alone, so a call through an interface counts for
// every method of that name; testOnlyAllowed lists the exceptions.
func TestNoTestOnlyCode(t *testing.T) {
	type decl struct {
		id, pos string
	}
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(p, "benchmarks/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		checked := strings.HasPrefix(p, "internal/") && !strings.HasSuffix(p, "_test.go")
		for _, dc := range f.Decls {
			// A declaration names nothing; neither does a recursive call
			// of a checked function.
			var declared *ast.Ident
			self := ""
			if fd, ok := dc.(*ast.FuncDecl); ok {
				declared = fd.Name
				if checked && fd.Name.IsExported() {
					self = fd.Name.Name
					decls = append(decls, decl{funcID(path.Dir(p), fd), fset.Position(fd.Pos()).String()})
				}
			}
			ast.Inspect(dc, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != declared && id.Name != self {
					named[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	needed := map[string]bool{}
	for _, d := range decls {
		name := d.id[strings.LastIndex(d.id, ".")+1:]
		switch {
		case named[name]:
		case testOnlyAllowed[d.id] != "":
			needed[d.id] = true
		default:
			t.Errorf("%s: %s is named by no non-test file; delete it, or move it into a _test.go file if tests need it", d.pos, d.id)
		}
	}
	for id := range testOnlyAllowed {
		if !needed[id] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or named elsewhere now; drop the entry", id)
		}
	}
}

// funcID renders a function declared in dir as dir.Name, or dir.Recv.Name
// for a method.
func funcID(dir string, fd *ast.FuncDecl) string {
	id := dir + "."
	if fd.Recv != nil {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if rid, ok := recv.(*ast.Ident); ok {
			id += rid.Name + "."
		}
	}
	return id + fd.Name.Name
}
