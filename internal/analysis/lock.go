package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// concurrencyPackages are the packages with real shared-mutable-state
// concurrency: the serving stack's mutex-guarded sections. The lock rules
// (lockguard, blockinglock, lockorder) run here; the compute packages are
// single-goroutine per task by construction and stay out of scope.
var concurrencyPackages = map[string]bool{
	ModulePath + "/internal/server":  true,
	ModulePath + "/internal/engine":  true,
	ModulePath + "/internal/dist":    true,
	ModulePath + "/internal/store":   true,
	ModulePath + "/internal/traffic": true,
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockOp classifies one sync.(RW)Mutex method call.
type lockOp int

const (
	opNone   lockOp = iota
	opLock          // Lock, RLock — blocking acquisition
	opUnlock        // Unlock, RUnlock — release
)

// mutexCall resolves call as a method call on a sync.Mutex/RWMutex value,
// returning the operation and the mutex expression (the method's receiver,
// e.g. the `s.mu` in `s.mu.Lock()`). TryLock/TryRLock are neither acquisition
// edges nor releases for the lock rules (they cannot block, and their success
// is conditional), so they classify as opNone.
func mutexCall(info *types.Info, call *ast.CallExpr) (lockOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return opNone, nil
	}
	switch f.Name() {
	case "Lock", "RLock":
		return opLock, sel.X
	case "Unlock", "RUnlock":
		return opUnlock, sel.X
	}
	return opNone, nil
}

// mutexNode names a mutex for the intra-package lock graph: a struct field
// mutex is identified by its owning type ("Server.mu" — every instance shares
// the one ordering discipline), anything else by its printed expression.
func mutexNode(info *types.Info, expr ast.Expr) string {
	if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if owner := namedRecv(s.Recv()); owner != "" {
				return owner + "." + s.Obj().Name()
			}
		}
	}
	return types.ExprString(expr)
}

// mutexKey identifies a held mutex within one function body: the printed
// expression ("s.mu", "j.mu") so distinct receivers stay distinct locally.
func mutexKey(expr ast.Expr) string { return types.ExprString(expr) }

// namedRecv unwraps a selection receiver type to its named-type name.
func namedRecv(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// heldMutex is one acquisition in flight during a heldScan.
type heldMutex struct {
	key  string    // printed mutex expression, e.g. "s.mu"
	node string    // graph node, e.g. "Server.mu"
	pos  token.Pos // acquisition site
}

// heldScan walks one function body in source order, tracking the set of
// mutexes held at each point, and invokes visit on every node with the
// current held set. The model is deliberately linear: Lock adds, Unlock
// removes, a deferred Unlock keeps the mutex held to the end of the body
// (the dominant lock-then-defer idiom). Function literals are scanned
// separately with an empty held set — a closure may run on another goroutine
// (go/defer), where the enclosing lock is not held.
func heldScan(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held []heldMutex)) {
	var held []heldMutex
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			heldScan(info, node.Body, visit)
			return false
		case *ast.DeferStmt:
			// A deferred Unlock releases at return: for the linear model the
			// mutex stays held for the rest of the body. A deferred call of
			// anything else is not a blocking point now.
			return false
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok {
				switch op, mx := mutexCall(info, call); op {
				case opLock:
					visit(n, held)
					held = append(held, heldMutex{key: mutexKey(mx), node: mutexNode(info, mx), pos: call.Pos()})
					return false
				case opUnlock:
					key := mutexKey(mx)
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].key == key {
							held = append(held[:i:i], held[i+1:]...)
							break
						}
					}
					return false
				}
			}
		}
		visit(n, held)
		return true
	}
	ast.Inspect(body, walk)
}

// sortedHeld returns the held set ordered by key for deterministic messages.
func sortedHeld(held []heldMutex) []heldMutex {
	out := append([]heldMutex(nil), held...)
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// lockedSuffix reports whether the function name follows the
// caller-holds-the-lock naming convention (pruneHandlesLocked, evictLocked).
func lockedSuffix(name string) bool {
	return strings.HasSuffix(name, "Locked") || strings.HasSuffix(name, "locked")
}

// recvIdent returns the declared receiver identifier of a method ("" for
// functions and anonymous receivers).
func recvIdent(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return ""
	}
	return decl.Recv.List[0].Names[0].Name
}
