package analysis

import (
	"go/ast"
	"go/types"
)

// Mutex-recognition machinery for guardedby, plus the field and lock-class
// keys it shares with the call-graph analyzers. guardedby scans function
// bodies for calls of the form
//
//	<expr>.Lock() / RLock() / Unlock() / RUnlock()
//
// where <expr> has type sync.Mutex or sync.RWMutex, and reconstructs the
// lock state with a position-ordered linear scan: events are sorted by
// source position and replayed in order, which models the engine's
// straight-line "Lock … access … Unlock" and "Lock; defer Unlock" shapes
// exactly. Deferred unlocks never release — the lock is held to the end of
// the function, which is the conservative direction.

// mutexOp classifies one Lock/RLock/Unlock/RUnlock call.
type mutexOp struct {
	// recv is the mutex-valued expression the method is called on
	// (e.g. the `c.mu` of `c.mu.Lock()`).
	recv ast.Expr
	// name is the method name: Lock, RLock, Unlock or RUnlock.
	name string
	// deferred marks `defer x.mu.Unlock()` (and, degenerately, deferred
	// locks, which the scanners ignore).
	deferred bool
}

func (op *mutexOp) acquire() bool { return op.name == "Lock" || op.name == "RLock" }
func (op *mutexOp) read() bool    { return op.name == "RLock" || op.name == "RUnlock" }

// asMutexOp recognizes a mutex method call; stack is the ancestor chain
// (outermost first) used to detect a directly enclosing defer.
func asMutexOp(pass *Pass, stack []ast.Node, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return mutexOp{}, false
	}
	if !isMutexType(pass.typeOf(sel.X)) {
		return mutexOp{}, false
	}
	op := mutexOp{recv: sel.X, name: sel.Sel.Name}
	if len(stack) >= 2 {
		if d, ok := stack[len(stack)-2].(*ast.DeferStmt); ok && d.Call == call {
			op.deferred = true
		}
	}
	return op, true
}

// typeOf resolves an expression's type, nil when unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	name, rw := mutexTypeName(t)
	return name || rw
}

func mutexTypeName(t types.Type) (mutex, rwmutex bool) {
	if t == nil {
		return false, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch n.Obj().Name() {
	case "Mutex":
		return true, false
	case "RWMutex":
		return false, true
	}
	return false, false
}

// lockClass names the lock an expression denotes, instance-insensitively:
// a struct field becomes "pkgpath.Struct.field", a package-level var
// "pkgpath.var", and a local mutex variable gets a declaration-position
// key. Returns "" when the expression doesn't resolve.
func lockClass(pass *Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if owner := namedRecv(sel.Recv()); owner != nil {
				return FieldKey(owner.Obj().Pkg().Path(), owner.Obj().Name(), sel.Obj().Name())
			}
		}
		if obj, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && isPackageLevel(obj) {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[e].(*types.Var); ok {
			if isPackageLevel(obj) {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return "local@" + pass.Fset.Position(obj.Pos()).String()
		}
	}
	return ""
}

// namedRecv unwraps a selection receiver to its named struct type.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil
	}
	return n
}

// fieldAccessKey resolves a selector to its field key
// ("pkgpath.Struct.Field") when it selects a named struct's field; ""
// otherwise. Promoted fields key on the embedded struct that declares
// them, matching where the annotation lives.
func fieldAccessKey(pass *Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return ""
	}
	// Walk the selection path so promoted fields resolve to the struct
	// that actually declares them.
	t := s.Recv()
	idx := s.Index()
	for i := 0; i < len(idx)-1; i++ {
		st := structUnder(t)
		if st == nil {
			return ""
		}
		t = st.Field(idx[i]).Type()
	}
	owner := namedRecv(t)
	if owner == nil {
		return ""
	}
	return FieldKey(owner.Obj().Pkg().Path(), owner.Obj().Name(), field.Name())
}

func structUnder(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		t = n.Underlying()
	}
	st, _ := t.(*types.Struct)
	return st
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
