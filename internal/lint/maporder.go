package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrderAnalyzer flags `for range` loops over maps whose bodies do
// order-sensitive work. Go randomizes map iteration order per run, so a
// map-range that appends to a slice, writes to an io.Writer (including
// hashers and string builders — the way plan-cache keys are built),
// emits trace events, or concatenates onto a string produces
// different bytes on different runs — exactly the nondeterminism that
// broke arena reclaim and UM LRU ties before PR 1 fixed them.
//
// The sanctioned pattern is: collect the keys, sort them, then iterate
// the sorted slice. A map-range that only collects keys into a slice
// which is later passed to sort.*/slices.Sort* in the same function is
// therefore not flagged.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work (append/write/emit/key-building) inside map iteration",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	ioWriter := ioWriterInterface()
	for _, f := range pass.Files {
		var walk func(n ast.Node, funcBody *ast.BlockStmt)
		walk = func(n ast.Node, funcBody *ast.BlockStmt) {
			switch n := n.(type) {
			case nil:
				return
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, n.Body)
				}
				return
			case *ast.FuncLit:
				walk(n.Body, n.Body)
				return
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						checkMapRange(pass, n, funcBody, ioWriter)
					}
				}
			}
			for _, c := range childNodes(n) {
				walk(c, funcBody)
			}
		}
		walk(f, nil)
	}
}

// checkMapRange inspects one map-range body for order-sensitive sinks.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt, ioWriter *types.Interface) {
	mapName := types.ExprString(rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map-range is checked on its own; one diagnostic
			// per loop is enough.
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.CallExpr:
			// append(s, ...) — order of the resulting slice depends on
			// iteration order, unless the slice is sorted before use.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if obj := appendTarget(pass.Info, n); obj != nil &&
					sortedInFunc(pass.Info, funcBody, obj) {
					return true
				}
				// Appending to an element indexed by the range key is
				// order-safe: each key's slice is only grown during its
				// own iteration, so per-slice order is program order.
				if keyedByRangeKey(pass.Info, n, rng) {
					return true
				}
				pass.Reportf(n.Pos(),
					"append inside iteration over map %s: slice order depends on map iteration order; collect keys and sort before use", mapName)
				return true
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// fmt.Fprint*/Print* — direct output in map order.
			if pkg, ok := importedPackage(pass.Info, sel); ok && pkg == "fmt" {
				name := sel.Sel.Name
				if len(name) >= 5 && (name[:5] == "Fprin" || name[:4] == "Prin") {
					pass.Reportf(n.Pos(),
						"fmt.%s inside iteration over map %s: output order depends on map iteration order; iterate sorted keys instead", name, mapName)
				}
				return true
			}
			// Method calls: trace emission, and Write* on io.Writer
			// implementations (files, buffers, builders, hashers — the
			// latter being how plan-cache keys are built).
			recvTV, ok := pass.Info.Types[sel.X]
			if !ok {
				return true
			}
			if sel.Sel.Name == "Emit" {
				pass.Reportf(n.Pos(),
					"trace emission inside iteration over map %s: event order depends on map iteration order; iterate sorted keys instead", mapName)
				return true
			}
			if isWriteMethod(sel.Sel.Name) && implementsWriter(recvTV.Type, ioWriter) {
				pass.Reportf(n.Pos(),
					"%s on an io.Writer inside iteration over map %s: written bytes (output, hash, or cache/journal key) depend on map iteration order; iterate sorted keys instead",
					sel.Sel.Name, mapName)
			}
		case *ast.AssignStmt:
			// s += ... on a string builds a key/message in map order.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if tv, ok := pass.Info.Types[n.Lhs[0]]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(),
							"string concatenation inside iteration over map %s: the built string depends on map iteration order; iterate sorted keys instead", mapName)
					}
				}
			}
		}
		return true
	})
}

// appendTarget resolves the object append is growing: the first
// argument, when it is a plain identifier.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// keyedByRangeKey reports whether append's target is an index
// expression whose index is the map-range's own key variable
// (m2[k] = append(m2[k], v) inside for k := range m).
func keyedByRangeKey(info *types.Info, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := info.Defs[keyID]
	if keyObj == nil {
		keyObj = info.Uses[keyID]
	}
	if keyObj == nil || len(call.Args) == 0 {
		return false
	}
	idx, ok := call.Args[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := idx.Index.(*ast.Ident)
	return ok && info.Uses[id] == keyObj
}

// sortedInFunc reports whether obj is passed to a sort.* or slices.*
// sorting call anywhere in the enclosing function — the "sorted before
// use" exemption.
func sortedInFunc(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := importedPackage(info, sel)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// isWriteMethod matches the io-style write methods order-sensitive
// sinks expose.
func isWriteMethod(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// implementsWriter reports whether t (or *t) satisfies io.Writer.
func implementsWriter(t types.Type, w *types.Interface) bool {
	if types.Implements(t, w) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), w)
	}
	return false
}

// ioWriterInterface constructs interface{ Write([]byte) (int, error) }
// structurally, so the check works without the analyzed package
// importing io.
func ioWriterInterface() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}

// childNodes lists a node's immediate children, for the manual walk
// that tracks enclosing function bodies.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
