package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The call-graph layer: the noalloc analyzer's Prepare pass, which records
// for every function declaration in the package
//
//   - its potential heap-allocation sites (a conservative, syntactic
//     escape classifier — see the rules on classifyCall and friends), and
//   - its static in-module call sites (the edges noalloc walks
//     transitively).
//
// Both are exported as vetx facts, so both driver modes see the same
// whole-program graph: standalone mode prepares every package in
// dependency order, unitchecker mode merges dependency facts before
// preparing the current unit.
//
// The classifier is deliberately conservative: it flags constructs that
// *may* allocate rather than proving that they do. Escape hatches exist at
// both ends — a justified //rasql:allow noalloc on the site suppresses it
// for every caller, and annotating the callee //rasql:noalloc makes it a
// modular proof obligation of its own instead of something re-derived at
// every use.

// noallocSafePkgs are out-of-module packages whose exported functions are
// known allocation-free wholesale (pure arithmetic / atomic primitives).
var noallocSafePkgs = map[string]bool{
	"encoding/binary": true,
	"math":            true,
	"math/bits":       true,
	"sync/atomic":     true,
	"unicode/utf8":    true,
}

// noallocSafeFuncs are individual out-of-module functions and methods
// known allocation-free, keyed by ObjKey.
var noallocSafeFuncs = map[string]bool{
	"sync.Mutex.Lock": true, "sync.Mutex.Unlock": true, "sync.Mutex.TryLock": true,
	"sync.RWMutex.Lock": true, "sync.RWMutex.Unlock": true,
	"sync.RWMutex.RLock": true, "sync.RWMutex.RUnlock": true,
	"sync.WaitGroup.Add": true, "sync.WaitGroup.Done": true, "sync.WaitGroup.Wait": true,
	"sync.Cond.Signal": true, "sync.Cond.Broadcast": true, "sync.Cond.Wait": true,
	"sync.Once.Do": true,
	"time.Now":     true, "time.Since": true,
	"bytes.Equal": true, "bytes.Compare": true, "bytes.IndexByte": true,
	"bytes.HasPrefix": true, "bytes.HasSuffix": true,
}

// prepareCallGraph records alloc sites and call edges for every function
// of the package.
func prepareCallGraph(pass *Pass) {
	if pass.Pkg == nil {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				scanFuncGraph(pass, fd)
			}
		}
	}
}

func scanFuncGraph(pass *Pass, fd *ast.FuncDecl) {
	key := FuncKey(pass.Pkg.Path(), declRecvName(fd), fd.Name.Name)
	derived := derivedBases(pass, fd)
	record := func(pos token.Pos, what string) {
		p := pass.Fset.Position(pos)
		// Allow suppressions apply at record time: a justified site in an
		// unannotated helper must not propagate to annotated callers.
		// (The literal name avoids an initialization cycle with NoAlloc.)
		if pass.Index.Allowed("noalloc", p) {
			return
		}
		pass.Index.AddAllocSite(key, AllocSite{What: what, PosStr: p.String(), Pos: pos, Local: true})
	}
	walkWithStack(fd.Body, func(stack []ast.Node, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			classifyCall(pass, stack, n, derived, record, key)
		case *ast.CompositeLit:
			classifyCompositeLit(pass, stack, n, record)
		case *ast.FuncLit:
			classifyFuncLit(pass, stack, n, record)
		case *ast.GoStmt:
			record(n.Pos(), "spawns a goroutine (stack allocation)")
		case *ast.AssignStmt:
			classifyAssign(pass, n, record)
		case *ast.ReturnStmt:
			classifyReturn(pass, stack, fd, n, record)
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.Info.Types[n]; ok && tv.Value == nil && tv.Type != nil && isStringType(tv.Type.Underlying()) {
					record(n.Pos(), "string concatenation allocates")
				}
			}
		}
	})
}

// classifyCall handles conversions, builtins, and function calls.
//
// Rules, in order:
//   - type conversions: string↔[]byte/[]rune copy (except the compiler's
//     no-copy m[string(b)] map-index form); conversions to interface box
//     non-pointer-shaped values; all other conversions are free;
//   - builtins: make/new allocate; append allocates unless its destination
//     derives from a parameter or receiver (the caller owns the capacity
//     contract); len/cap/copy/delete are free; panic's boxing is cold-path
//     by definition;
//   - dynamic calls (func values, interface methods): the callee is
//     unknown, so the call is conservatively an allocation site;
//   - static in-module calls: recorded as call-graph edges (plus boxing
//     checks on their interface-typed arguments);
//   - static out-of-module calls: free only when safe-listed.
func classifyCall(pass *Pass, stack []ast.Node, call *ast.CallExpr, derived map[types.Object]bool, record func(token.Pos, string), key string) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		classifyConversion(pass, stack, call, tv.Type, record)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				record(call.Pos(), "make allocates")
			case "new":
				record(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && baseIsDerived(pass, call.Args[0], derived) {
					return
				}
				record(call.Pos(), "append to a slice not derived from a parameter or receiver may grow past capacity")
			}
			return
		}
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Calling a literal is not a dynamic call: the literal's body is
		// scanned in this same frame, and classifyFuncLit decides whether
		// the closure value itself escapes.
		return
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		record(call.Pos(), "dynamic call through a func value: callee not statically known to be allocation-free")
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		record(call.Pos(), "dynamic call through interface method "+fn.Name()+": implementation not statically known")
		return
	}
	classifyCallArgs(pass, call, fn, record)
	callee := ObjKey(fn)
	if sameModule(pass.Pkg.Path(), fn.Pkg()) {
		recordVariadicSlice(pass, call, fn, record)
		p := pass.Fset.Position(call.Pos())
		pass.Index.AddCallEdge(key, CallSite{Callee: callee, PosStr: p.String(), Pos: call.Pos(), Local: true})
		return
	}
	if (fn.Pkg() != nil && noallocSafePkgs[fn.Pkg().Path()]) || noallocSafeFuncs[callee] {
		recordVariadicSlice(pass, call, fn, record)
		return
	}
	record(call.Pos(), "calls "+callee+", not known to be allocation-free")
}

func classifyConversion(pass *Pass, stack []ast.Node, call *ast.CallExpr, dst types.Type, record func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	src := pass.typeOf(call.Args[0])
	if src == nil {
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	switch {
	case isStringType(du) && isCharSlice(su):
		// The compiler elides the copy for m[string(b)] map indexing.
		if len(stack) >= 2 {
			if ix, ok := stack[len(stack)-2].(*ast.IndexExpr); ok && ix.Index == call {
				if t := pass.typeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return
					}
				}
			}
		}
		record(call.Pos(), "[]byte-to-string conversion copies")
	case isCharSlice(du) && isStringType(su):
		record(call.Pos(), "string-to-[]byte conversion copies")
	case boxes(pass, dst, call.Args[0]):
		record(call.Pos(), "conversion boxes the value into an interface")
	}
}

// recordVariadicSlice flags the implicit slice a variadic call builds for
// its trailing arguments (tracer span Args and the like). Only applied to
// calls that pass the other checks — an unsafe out-of-module call is one
// site, not two.
func recordVariadicSlice(pass *Pass, call *ast.CallExpr, fn *types.Func, record func(token.Pos, string)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return
	}
	if len(call.Args) >= sig.Params().Len() {
		record(call.Pos(), "variadic call builds an implicit argument slice")
	}
}

func classifyCallArgs(pass *Pass, call *ast.CallExpr, fn *types.Func, record func(token.Pos, string)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, nothing boxed here
			}
			st, _ := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
			if st == nil {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass, pt, arg) {
			record(arg.Pos(), "argument boxed into interface parameter allocates")
		}
	}
}

// classifyCompositeLit: slice and map literals always allocate; struct and
// array literals only escape when the program takes their address.
func classifyCompositeLit(pass *Pass, stack []ast.Node, lit *ast.CompositeLit, record func(token.Pos, string)) {
	t := pass.typeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		record(lit.Pos(), "slice literal allocates")
	case *types.Map:
		record(lit.Pos(), "map literal allocates")
	default:
		if len(stack) >= 2 {
			if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == lit {
				record(u.Pos(), "&-literal escapes to the heap")
			}
		}
	}
}

// classifyFuncLit: a closure that captures outer variables by reference
// allocates its environment — except when immediately invoked (the
// compiler keeps the frame on the stack) or spawned by a go statement
// (the go statement is already a site of its own).
func classifyFuncLit(pass *Pass, stack []ast.Node, lit *ast.FuncLit, record func(token.Pos, string)) {
	if len(stack) >= 2 {
		if c, ok := stack[len(stack)-2].(*ast.CallExpr); ok && c.Fun == lit {
			if len(stack) >= 3 {
				switch s := stack[len(stack)-3].(type) {
				case *ast.GoStmt:
					if s.Call == c {
						return
					}
				case *ast.DeferStmt:
					if s.Call == c {
						break // deferred closures heap-allocate their captures
					}
				default:
					return // immediately-invoked: stays on the stack
				}
			} else {
				return
			}
		}
	}
	if name := capturedVar(pass, lit); name != "" {
		record(lit.Pos(), "closure captures "+name+" by reference and allocates its environment")
	}
}

func classifyAssign(pass *Pass, as *ast.AssignStmt, record func(token.Pos, string)) {
	for i, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := pass.typeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					record(lhs.Pos(), "map write may grow the map")
					continue
				}
			}
		}
		if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) && i < len(as.Rhs) {
			if boxes(pass, pass.typeOf(lhs), as.Rhs[i]) {
				record(as.Rhs[i].Pos(), "assignment boxes the value into an interface")
			}
		}
	}
}

func classifyReturn(pass *Pass, stack []ast.Node, fd *ast.FuncDecl, ret *ast.ReturnStmt, record func(token.Pos, string)) {
	sig := enclosingSig(pass, stack, fd)
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		if boxes(pass, sig.Results().At(i).Type(), r) {
			record(r.Pos(), "return boxes the value into an interface")
		}
	}
}

// boxes reports whether assigning e to a target of type dst heap-allocates
// an interface box: dst is an interface, and e is a non-constant, non-nil,
// non-interface value whose representation doesn't fit the interface data
// word (pointers, channels, maps and funcs do).
func boxes(pass *Pass, dst types.Type, e ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.IsNil() || tv.Value != nil || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isCharSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// derivedBases computes the function's parameter-derived identifier set: a
// fixpoint over assignments whose right side is a chain of selections,
// indexing, slicing, addressing or appends rooted at a parameter, receiver
// or named result. Appending to such a destination honors the caller's
// capacity contract (types.AppendKey-style append-to-caller-buffer APIs)
// and is exempt from the append rule; call results are never derived.
func derivedBases(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	d := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					d[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	if fd.Type != nil {
		addFields(fd.Type.Params)
		addFields(fd.Type.Results)
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil || d[obj] {
					continue
				}
				if base := baseIdentObj(pass, as.Rhs[i]); base != nil && d[base] {
					d[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return d
}

func baseIsDerived(pass *Pass, e ast.Expr, derived map[types.Object]bool) bool {
	base := baseIdentObj(pass, e)
	return base != nil && derived[base]
}

// baseIdentObj resolves the root identifier of a selection/index/slice/
// address chain ("sh" for &s.shards[i] is s; nil when the chain roots at a
// call or literal).
func baseIdentObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			// append(derived, ...) keeps its base; any other call breaks
			// the derivation.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					e = x.Args[0]
					continue
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// capturedVar returns the name of one outer local variable the closure
// references ("" when it captures nothing heap-forcing).
func capturedVar(pass *Pass, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPackageLevel(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = v.Name()
		}
		return true
	})
	return found
}

// enclosingSig resolves the signature of the innermost enclosing function
// on the ancestor stack; returns outside any closure belong to the
// declaration itself (walkWithStack roots at fd.Body, so fd is never on
// the stack).
func enclosingSig(pass *Pass, stack []ast.Node, fd *ast.FuncDecl) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		if n, ok := stack[i].(*ast.FuncLit); ok {
			sig, _ := pass.typeOf(n).(*types.Signature)
			return sig
		}
	}
	if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		sig, _ := obj.Type().(*types.Signature)
		return sig
	}
	return nil
}

// sameModule reports whether pkg lives in the same module as selfPath,
// by the moduleRoot heuristic.
func sameModule(selfPath string, pkg *types.Package) bool {
	return pkg != nil && moduleRoot(selfPath) == moduleRoot(pkg.Path())
}

// moduleRoot approximates a package's module path: hosted modules
// (github.com/owner/repo/...) keep three segments, single-segment and
// test-fixture modules (rasql.fixture/pkg) keep the first.
func moduleRoot(path string) string {
	parts := strings.SplitN(path, "/", 4)
	if strings.Contains(parts[0], ".") && len(parts) >= 3 {
		return strings.Join(parts[:3], "/")
	}
	return parts[0]
}

// typeOf resolves an expression's type, nil when unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// walkWithStack runs fn over every node of root with the ancestor chain
// (outermost first, current node last).
func walkWithStack(root ast.Node, fn func(stack []ast.Node, n ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(stack, n)
		return true
	})
}
