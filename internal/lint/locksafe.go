package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSafeAnalyzer is the flow-aware mutex discipline check. Two
// rules, both aimed at the serving concurrency layer (copying a
// mutex by value is go vet's copylocks check, which CI runs):
//
//  1. Every Lock/RLock is matched by an Unlock/RUnlock on every return
//     path of the acquiring function. defer Unlock satisfies all paths
//     at once and is the preferred form.
//  2. In serving packages (any package with a "serve" path element), no
//     lock is held across a blocking operation: a channel send or
//     receive outside a select-with-default, a select without a default
//     clause, time.Sleep, or sync.WaitGroup.Wait. A lock held across a
//     block turns one slow peer into a stalled daemon.
//
// The analyzer walks each function body tracking the set of held locks
// through branches (if/switch/select arms merge as the union of their
// non-terminating outcomes), so conditional Lock/Unlock pairs that
// balance on both arms are not flagged.
var LockSafeAnalyzer = &Analyzer{
	Name: "locksafe",
	Doc:  "every Lock has an Unlock on all return paths, and no lock is held across blocking ops in serve",
	Run:  runLockSafe,
}

// heldLock records one acquisition still outstanding at some program
// point.
type heldLock struct {
	pos      token.Pos // the Lock call, for reporting
	name     string    // receiver expression, e.g. "s.mu"
	deferred bool      // a defer Unlock covers it: all return paths are safe
}

// lockMethods classifies sync locking methods by their types.Func full
// name. true = acquire, false = release.
var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    false,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  false,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": false,
}

func runLockSafe(pass *Pass) {
	blockingScope := pathHasElement(pass.PkgPath, "serve")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w := &lockWalker{pass: pass, blocking: blockingScope}
					w.funcBody(n.Body)
				}
				return false // funcBody handles nested literals itself
			case *ast.FuncLit: // package-level var f = func(){...}
				w := &lockWalker{pass: pass, blocking: blockingScope}
				w.funcBody(n.Body)
				return false
			}
			return true
		})
	}
}

// pathHasElement reports whether a slash-separated import path contains
// the given element.
func pathHasElement(path, elem string) bool {
	for _, p := range strings.Split(path, "/") {
		if p == elem {
			return true
		}
	}
	return false
}

// lockWalker tracks the held-lock set through one function body.
type lockWalker struct {
	pass     *Pass
	blocking bool // also enforce the no-block-while-locked rule
	// inComm suppresses per-operation blocking reports while walking a
	// select communication clause: whether the select blocks is decided
	// at the select level (default clause or not), not per channel op.
	inComm bool
}

// funcBody checks one function body from an empty held set, reporting
// locks still held (and not defer-released) when the body falls off the
// end.
func (w *lockWalker) funcBody(body *ast.BlockStmt) {
	held, terminated := w.stmts(body.List, nil)
	if !terminated {
		w.reportLeaks(held)
	}
}

// reportLeaks flags every held lock without a defer release.
func (w *lockWalker) reportLeaks(held []heldLock) {
	for _, h := range held {
		if !h.deferred {
			w.pass.Reportf(h.pos,
				"%s.Lock() is not released on every return path; add an Unlock (or defer it)", h.name)
		}
	}
}

// stmts walks a statement list, threading the held set through it.
// Returns the held set at the end and whether control definitely does
// not fall through (return/panic on all paths).
func (w *lockWalker) stmts(list []ast.Stmt, held []heldLock) ([]heldLock, bool) {
	for _, s := range list {
		var terminated bool
		held, terminated = w.stmt(s, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held []heldLock) ([]heldLock, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		held = w.exprEffects(s.X, held)
		return held, isTerminalCall(s.X)
	case *ast.DeferStmt:
		released := map[string]bool{}
		if name, acquire, ok := w.lockCall(s.Call); ok && !acquire {
			released[name] = true
		} else if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// defer func() { ...; mu.Unlock() }(): any unlock inside the
			// deferred literal covers the lock on all return paths.
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name, acquire, ok := w.lockCall(call); ok && !acquire {
						released[name] = true
					}
				}
				return true
			})
		}
		for i := range held {
			if released[held[i].name] {
				held[i].deferred = true
			}
		}
		return held, false
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = w.exprEffects(rhs, held)
		}
		return held, false
	case *ast.DeclStmt, *ast.EmptyStmt, *ast.IncDecStmt, *ast.BranchStmt:
		return held, false
	case *ast.ReturnStmt:
		w.reportLeaks(held)
		return held, true
	case *ast.SendStmt:
		w.reportBlocked(s.Pos(), held, "channel send")
		return held, false
	case *ast.GoStmt:
		// The goroutine body runs with its own (empty) lock state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.funcBody(lit.Body)
		}
		return held, false
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		held = w.exprEffects(s.Cond, held)
		thenHeld, thenTerm := w.stmts(s.Body.List, cloneHeld(held))
		elseHeld, elseTerm := cloneHeld(held), false
		if s.Else != nil {
			elseHeld, elseTerm = w.stmt(s.Else, cloneHeld(held))
		}
		return mergeHeld(thenHeld, thenTerm, elseHeld, elseTerm)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.exprEffects(s.Tag, held)
		}
		return w.caseBodies(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		return w.caseBodies(s.Body, held)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.reportBlocked(s.Pos(), held, "select without a default clause")
		}
		return w.commBodies(s.Body, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.exprEffects(s.Cond, held)
		}
		// Approximate: the body is checked for internal violations, and
		// the held set is assumed unchanged across iterations (the
		// common balanced-loop case; imbalance inside the body is
		// caught by the body's own return-path checks).
		w.stmts(s.Body.List, cloneHeld(held))
		return held, false
	case *ast.RangeStmt:
		held = w.exprEffects(s.X, held)
		w.stmts(s.Body.List, cloneHeld(held))
		return held, false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	default:
		return held, false
	}
}

// caseBodies walks switch case clauses, merging their outcomes.
func (w *lockWalker) caseBodies(body *ast.BlockStmt, held []heldLock) ([]heldLock, bool) {
	merged, mergedTerm, first := cloneHeld(held), false, true
	sawDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			sawDefault = true
		}
		h, term := w.stmts(cc.Body, cloneHeld(held))
		if first {
			merged, mergedTerm, first = h, term, false
		} else {
			merged, mergedTerm = mergeHeld(merged, mergedTerm, h, term)
		}
	}
	if !sawDefault {
		// No default: falling past every case is possible.
		merged, mergedTerm = mergeHeld(merged, mergedTerm, cloneHeld(held), false)
	}
	return merged, mergedTerm
}

// commBodies walks select communication clauses, merging outcomes.
func (w *lockWalker) commBodies(body *ast.BlockStmt, held []heldLock) ([]heldLock, bool) {
	merged, mergedTerm, first := cloneHeld(held), false, true
	for _, c := range body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		h := cloneHeld(held)
		if cc.Comm != nil {
			w.inComm = true
			h, _ = w.stmt(cc.Comm, h)
			w.inComm = false
		}
		h, term := w.stmts(cc.Body, h)
		if first {
			merged, mergedTerm, first = h, term, false
		} else {
			merged, mergedTerm = mergeHeld(merged, mergedTerm, h, term)
		}
	}
	return merged, mergedTerm
}

// exprEffects scans an expression for lock transitions and blocking
// operations, returning the updated held set. Function literals are
// separate lock scopes and are walked independently.
func (w *lockWalker) exprEffects(e ast.Expr, held []heldLock) []heldLock {
	result := held
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.funcBody(n.Body)
			return false
		case *ast.CallExpr:
			if name, acquire, ok := w.lockCall(n); ok {
				if acquire {
					result = append(result, heldLock{pos: n.Pos(), name: name})
				} else {
					result = removeHeld(result, name)
				}
				return false
			}
			if w.blockingCall(n) {
				w.reportBlocked(n.Pos(), result, "call to "+callName(w.pass, n))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocked(n.Pos(), result, "channel receive")
			}
		}
		return true
	})
	return result
}

// lockCall classifies a call as a lock acquire/release via the callee's
// full name, returning the receiver expression as the lock identity.
func (w *lockWalker) lockCall(call *ast.CallExpr) (name string, acquire bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, isFn := w.pass.Info.ObjectOf(sel.Sel).(*types.Func)
	if !isFn {
		return "", false, false
	}
	acquire, known := lockMethods[fn.FullName()]
	if !known {
		return "", false, false
	}
	return types.ExprString(sel.X), acquire, true
}

// blockingCall reports whether the call is a known blocking operation
// for rule 2.
func (w *lockWalker) blockingCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkg, ok := importedPackage(w.pass.Info, sel); ok {
		return pkg == "time" && sel.Sel.Name == "Sleep"
	}
	if fn, ok := w.pass.Info.ObjectOf(sel.Sel).(*types.Func); ok {
		return fn.FullName() == "(*sync.WaitGroup).Wait"
	}
	return false
}

// reportBlocked flags every currently held lock at a blocking site
// (rule 2; only in serve-scoped packages).
func (w *lockWalker) reportBlocked(pos token.Pos, held []heldLock, what string) {
	if !w.blocking || w.inComm {
		return
	}
	for _, h := range held {
		w.pass.Reportf(pos,
			"%s is held across a blocking %s; release the lock before blocking", h.name, what)
	}
}

// selectHasDefault reports whether a select statement has a default
// clause (and therefore never blocks).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isTerminalCall recognizes calls that never return: panic, os.Exit,
// (log).Fatal*.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
			return true
		}
	}
	return false
}

// callName renders a call's function for messages.
func callName(pass *Pass, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.Info.ObjectOf(sel.Sel).(*types.Func); ok {
			return fn.FullName()
		}
		return types.ExprString(call.Fun)
	}
	return types.ExprString(call.Fun)
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func removeHeld(held []heldLock, name string) []heldLock {
	out := held[:0]
	for _, h := range held {
		if h.name != name {
			out = append(out, h)
		}
	}
	return out
}

// mergeHeld joins two branch outcomes: a lock is held after the join if
// it survives any branch that can fall through; deferred status must
// hold on that branch. If both branches terminate, so does the join.
func mergeHeld(a []heldLock, aTerm bool, b []heldLock, bTerm bool) ([]heldLock, bool) {
	switch {
	case aTerm && bTerm:
		return nil, true
	case aTerm:
		return b, false
	case bTerm:
		return a, false
	}
	merged := cloneHeld(a)
	have := map[token.Pos]bool{}
	for _, h := range a {
		have[h.pos] = true
	}
	for _, h := range b {
		if !have[h.pos] {
			merged = append(merged, h)
		}
	}
	return merged, false
}
