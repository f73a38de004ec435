package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrWrapAnalyzer enforces the error-handling contract around typed
// sentinel errors (ErrOOM, ErrCapacityShrunk, ErrCellTimeout, ...):
// they must be wrapped with %w when context is added, and matched with
// errors.Is/errors.As — never compared with == / != or string-matched.
// The degradation ladder depends on this: ErrCapacityShrunk wraps
// ErrOOM precisely so that capacity-probing callers using errors.Is
// behave unchanged, and a single == comparison silently breaks that
// chain.
//
// Flagged: ==/!= against a sentinel (nil comparisons are fine), switch
// cases on an error tag naming a sentinel, fmt.Errorf calls passing a
// sentinel without a %w verb, and string-matching on err.Error()
// (comparison against a literal, or strings.Contains/HasPrefix/
// HasSuffix/EqualFold).
var ErrWrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "sentinel errors must be wrapped with %w and matched via errors.Is/As, never == or string matching",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	isSentinel := func(e ast.Expr) (string, bool) {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return "", false
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !strings.HasPrefix(obj.Name(), "Err") || len(obj.Name()) < 4 {
			return "", false
		}
		if c := obj.Name()[3]; c < 'A' || c > 'Z' {
			return "", false
		}
		if !types.Implements(obj.Type(), errIface) {
			return "", false
		}
		return obj.Name(), true
	}
	isErrorDotError := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
			return false
		}
		tv, ok := pass.Info.Types[sel.X]
		return ok && types.Implements(tv.Type, errIface)
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for i, side := range []ast.Expr{n.X, n.Y} {
					other := []ast.Expr{n.Y, n.X}[i]
					if name, ok := isSentinel(side); ok && !isNil(pass, other) {
						pass.Reportf(n.Pos(),
							"%s compared with %s: use errors.Is so wrapped errors still match", name, n.Op)
						return true
					}
					if isErrorDotError(side) && isStringy(pass, other) {
						pass.Reportf(n.Pos(),
							"err.Error() compared against a string: match with errors.Is/errors.As, not string matching")
						return true
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tv, ok := pass.Info.Types[n.Tag]
				if !ok || !types.Implements(tv.Type, errIface) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name, ok := isSentinel(e); ok {
							pass.Reportf(e.Pos(),
								"switch on an error with case %s compares by ==; use errors.Is in if/else chains instead", name)
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := importedPackage(pass.Info, sel)
				if !ok {
					return true
				}
				switch {
				case pkg == "fmt" && sel.Sel.Name == "Errorf":
					checkErrorf(pass, n, isSentinel)
				case pkg == "strings":
					switch sel.Sel.Name {
					case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
						for _, arg := range n.Args {
							if isErrorDotError(arg) {
								pass.Reportf(n.Pos(),
									"strings.%s on err.Error(): match with errors.Is/errors.As, not string matching", sel.Sel.Name)
								break
							}
						}
					}
				}
			}
			return true
		})
	}
}

// checkErrorf flags fmt.Errorf calls that pass a sentinel error without
// a %w verb in the format literal.
func checkErrorf(pass *Pass, call *ast.CallExpr, isSentinel func(ast.Expr) (string, bool)) {
	if len(call.Args) < 2 {
		return
	}
	var sentinelName string
	for _, arg := range call.Args[1:] {
		if name, ok := isSentinel(arg); ok {
			sentinelName = name
			break
		}
	}
	if sentinelName == "" {
		return
	}
	if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if !strings.Contains(lit.Value, "%w") {
			pass.Reportf(call.Pos(),
				"fmt.Errorf formats sentinel %s without %%w: the result no longer satisfies errors.Is(err, %s)", sentinelName, sentinelName)
		}
	}
}

// isNil reports whether e is the untyped nil.
func isNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// isStringy reports whether e has string type.
func isStringy(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
