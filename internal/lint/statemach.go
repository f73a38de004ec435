package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// StateMachAnalyzer machine-checks declared state machines. A type
// opts in with a directive in its declaration doc comment:
//
//	//lint:statemach
//	//lint:statemach transitions=advance
//
// For an opted-in enum type (the online controller states), two
// properties are enforced module-wide:
//
//  1. Exhaustive switches: every switch over the enum type that has no
//     default clause names every declared constant of the type. A new
//     state added to the enum then fails vet at every dispatch site
//     that has not decided how to handle it — which is exactly the
//     bug class supervision state machines exist to prevent.
//  2. Sanctioned transitions: when the directive names transition
//     functions, assigning an enum constant to a field or element
//     (anything that outlives the local scope) outside those functions
//     is flagged. All state changes then flow through the one place
//     that validates them; copying an already-validated state variable
//     is still allowed.
//
// This is a module-level analyzer: the enum declaration and its
// constants are read from the loaded dependency closure, so a switch
// in a package that imports the enum is checked against the full
// constant set.
var StateMachAnalyzer = &Analyzer{
	Name:      "statemach",
	Doc:       "declared state-enum types (//lint:statemach) have exhaustive switches and only sanctioned transition writes",
	RunModule: runStateMach,
}

// stateEnum is one opted-in state machine.
type stateEnum struct {
	typeName    *types.TypeName
	consts      []types.Object // declared constants of the type, in name order
	constSet    map[types.Object]bool
	transitions map[string]bool // sanctioned transition function names; nil = rule 2 off
}

// qualified renders the enum's package-qualified name for messages.
func (e *stateEnum) qualified() string {
	return e.typeName.Pkg().Name() + "." + e.typeName.Name()
}

const statemachDirective = "lint:statemach"

func runStateMach(pass *ModulePass) {
	enums := collectStateEnums(pass.All)
	if len(enums) == 0 {
		return
	}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			checkStateMachFile(pass, pkg, f, enums)
		}
	}
}

// collectStateEnums finds //lint:statemach directives and the constant
// sets of the types they annotate, across the whole loaded module.
func collectStateEnums(all []*Package) []*stateEnum {
	var enums []*stateEnum
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					transitions, found := statemachFromDocs(ts.Doc, gd.Doc)
					if !found {
						continue
					}
					tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					e := &stateEnum{
						typeName:    tn,
						constSet:    map[types.Object]bool{},
						transitions: transitions,
					}
					scope := pkg.Types.Scope()
					names := scope.Names() // already sorted
					for _, name := range names {
						c, ok := scope.Lookup(name).(*types.Const)
						if ok && types.Identical(c.Type(), tn.Type()) {
							e.consts = append(e.consts, c)
							e.constSet[c] = true
						}
					}
					enums = append(enums, e)
				}
			}
		}
	}
	return enums
}

// statemachFromDocs scans the type's doc comments for the statemach
// directive, returning the sanctioned transition-function set (nil if
// none declared) and whether the directive was present.
func statemachFromDocs(docs ...*ast.CommentGroup) (map[string]bool, bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(text), statemachDirective)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t")) {
				continue
			}
			var transitions map[string]bool
			for _, field := range strings.Fields(rest) {
				if list, ok := strings.CutPrefix(field, "transitions="); ok {
					transitions = map[string]bool{}
					for _, name := range strings.Split(list, ",") {
						if name = strings.TrimSpace(name); name != "" {
							transitions[name] = true
						}
					}
				}
			}
			return transitions, true
		}
	}
	return nil, false
}

// checkStateMachFile applies both rules to one file.
func checkStateMachFile(pass *ModulePass, pkg *Package, f *ast.File, enums []*stateEnum) {
	enumFor := func(t types.Type) *stateEnum {
		for _, e := range enums {
			if types.Identical(t, e.typeName.Type()) {
				return e
			}
		}
		return nil
	}

	// funcName tracks the enclosing named function during the walk so
	// rule 2 can recognize sanctioned transition functions. Function
	// literals inherit their enclosing function's sanction.
	var checkNode func(n ast.Node, funcName string)
	checkNode = func(root ast.Node, funcName string) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkNode(n.Body, n.Name.Name)
				}
				return false
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tv, ok := pkg.Info.Types[n.Tag]
				if !ok {
					return true
				}
				e := enumFor(tv.Type)
				if e == nil {
					return true
				}
				checkExhaustive(pass, pkg, n, e)
			case *ast.AssignStmt:
				checkSanctionedWrite(pass, pkg, n, enumFor, funcName)
			}
			return true
		})
	}
	checkNode(f, "")
}

// checkExhaustive verifies a default-less switch over an enum names
// every constant.
func checkExhaustive(pass *ModulePass, pkg *Package, sw *ast.SwitchStmt, e *stateEnum) {
	covered := map[types.Object]bool{}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // a default clause handles everything else
		}
		for _, expr := range cc.List {
			if obj := caseConstObj(pkg.Info, expr); obj != nil {
				covered[obj] = true
			}
		}
	}
	var missing []string
	for _, c := range e.consts {
		if !covered[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(sw.Pos(),
			"switch over %s misses states %s; handle them explicitly or add a default",
			e.qualified(), strings.Join(missing, ", "))
	}
}

// caseConstObj resolves a case expression to the constant object it
// names, if it is a plain or package-qualified identifier.
func caseConstObj(info *types.Info, expr ast.Expr) types.Object {
	switch expr := expr.(type) {
	case *ast.Ident:
		return info.Uses[expr]
	case *ast.SelectorExpr:
		return info.Uses[expr.Sel]
	case *ast.ParenExpr:
		return caseConstObj(info, expr.X)
	}
	return nil
}

// checkSanctionedWrite flags `x.f = SomeState` / `xs[i].f = SomeState`
// outside the enum's sanctioned transition functions. Plain local
// variables (Ident LHS) and variable right-hand sides are allowed: the
// rule targets durable state flipped to a literal constant, bypassing
// the transition function's validation.
func checkSanctionedWrite(pass *ModulePass, pkg *Package, n *ast.AssignStmt, enumFor func(types.Type) *stateEnum, funcName string) {
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break // x, y = f() — a call never yields an enum literal
		}
		if _, isIdent := lhs.(*ast.Ident); isIdent {
			continue
		}
		tv, ok := pkg.Info.Types[lhs]
		if !ok {
			continue
		}
		e := enumFor(tv.Type)
		if e == nil || e.transitions == nil || e.transitions[funcName] {
			continue
		}
		rhsObj := caseConstObj(pkg.Info, n.Rhs[i])
		if rhsObj == nil || !e.constSet[rhsObj] {
			continue
		}
		pass.Reportf(n.Pos(),
			"raw %s write of %s outside sanctioned transition function%s (%s); route state changes through them",
			e.qualified(), rhsObj.Name(), plural(len(e.transitions)), joinKeys(e.transitions))
	}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func joinKeys(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
