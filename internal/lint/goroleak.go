package lint

import (
	"go/ast"
	"go/token"
)

// GoroLeakAnalyzer flags goroutines launched without a visible exit
// path. The serve daemon is a long-lived process: a goroutine that can
// only end when some other party acts exactly right is a slow leak that
// -race never sees. Two shapes are flagged inside `go func() { ... }`
// bodies:
//
//  1. An unconditional `for { ... }` loop containing no return and no
//     break — the goroutine can never exit, not even on shutdown. The
//     fix is a select on ctx.Done() (or a done channel) whose case
//     returns.
//  2. A bare, blocking channel receive (`<-ch` as a statement, or a
//     select consisting solely of receives with no default and no
//     other exit) at the top of the goroutine with nothing else to
//     wake it. If the channel is never closed or sent to, the
//     goroutine is pinned forever; receive inside a select that also
//     watches a cancellation signal instead.
//
// Near-misses are deliberately not flagged: loops with a returning
// ctx.Done() case, channel *sends* (the buffered-result idiom used by
// worker pools), and receives inside multi-case selects.
var GoroLeakAnalyzer = &Analyzer{
	Name: "goroleak",
	Doc:  "goroutines have a ctx.Done()/done-channel exit path: no exitless infinite loops or bare blocking receives",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true // go m.run(): the method body is checked where declared
			}
			checkGoroutineBody(pass, lit.Body)
			return true
		})
	}
}

// checkGoroutineBody applies both leak rules to one goroutine body.
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	// Rule 1: exitless infinite loops anywhere in the body (but not in
	// nested function literals, which are their own goroutines or
	// callbacks with their own lifetimes).
	inspectSameFunc(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopCanExit(loop) {
			pass.Reportf(loop.Pos(),
				"goroutine spins in a `for` loop with no return or break; add a ctx.Done()/done-channel case that exits")
		}
		return true
	})

	// Rule 2: a bare receive as the goroutine's first (blocking)
	// action. Later receives are usually sequenced after some
	// guaranteed event; the first one is the classic pinned-forever
	// shape.
	if len(body.List) == 0 {
		return
	}
	if expr, ok := body.List[0].(*ast.ExprStmt); ok {
		if u, ok := expr.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			pass.Reportf(u.Pos(),
				"goroutine blocks on a bare channel receive with no alternative wake-up; select on a cancellation signal as well")
		}
	}
}

// inspectSameFunc is ast.Inspect restricted to the current function:
// it does not descend into nested function literals.
func inspectSameFunc(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}

// loopCanExit reports whether an unconditional for loop contains a
// return, an unlabeled break at its own level, a labeled break, a
// panic, or a call that never returns.
func loopCanExit(loop *ast.ForStmt) bool {
	canExit := false
	depth := 0 // nested for/select/switch: their breaks don't exit this loop
	var walk func(ast.Stmt)
	walkBody := func(list []ast.Stmt) {
		for _, s := range list {
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			canExit = true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && (s.Label != nil || depth == 0) {
				canExit = true
			}
			if s.Tok == token.GOTO {
				canExit = true // conservatively assume the label is outside
			}
		case *ast.ExprStmt:
			if isTerminalCall(s.X) {
				canExit = true
			}
		case *ast.BlockStmt:
			walkBody(s.List)
		case *ast.IfStmt:
			walk(s.Body)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.ForStmt:
			depth++
			walk(s.Body)
			depth--
		case *ast.RangeStmt:
			depth++
			walk(s.Body)
			depth--
		case *ast.SwitchStmt:
			depth++
			walk(s.Body)
			depth--
		case *ast.TypeSwitchStmt:
			depth++
			walk(s.Body)
			depth--
		case *ast.SelectStmt:
			// break inside a select breaks the select, not the loop —
			// but return still exits, so walk with depth bumped.
			depth++
			walk(s.Body)
			depth--
		case *ast.CaseClause:
			walkBody(s.Body)
		case *ast.CommClause:
			walkBody(s.Body)
		case *ast.LabeledStmt:
			walk(s.Stmt)
		}
	}
	walkBody(loop.Body.List)
	return canExit
}
