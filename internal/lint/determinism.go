package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer forbids nondeterministic inputs in simulation
// code. The simulator's contract — byte-identical outputs for identical
// inputs, which the shared plan cache's keys and the byte-identity of
// CLI, served and golden tables all rely on — breaks the moment
// wall-clock time or unseeded randomness leaks into a simulated
// quantity. Simulated time comes from internal/simtime; randomness comes
// from seeded *rand.Rand instances (rand.New(rand.NewSource(seed))).
//
// Flagged: calls to time.Now, time.Since and time.Until, and calls to
// the global math/rand functions (rand.Intn, rand.Float64,
// rand.Shuffle, ... — anything drawing from the shared, unseeded
// source). Constructing a seeded generator (rand.New, rand.NewSource)
// is the sanctioned pattern and is not flagged.
//
// Wall-clock time is legitimate only at the edges — progress display in
// internal/metrics, request latency in internal/serve, and the
// command-line binaries under cmd/ — and those sites carry explicit
// //lint:allow determinism annotations explaining why.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time and unseeded global randomness in simulation code",
	Run:  runDeterminism,
}

// globalRandAllowed are math/rand package functions that do not draw
// from the global source: constructors for explicitly seeded
// generators.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes a *rand.Rand, draws nothing itself
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := importedPackage(pass.Info, sel)
			if !ok {
				return true
			}
			switch pkgPath {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(),
						"wall-clock time.%s in simulation code; use simtime for simulated durations (annotate //lint:allow determinism: <reason> if this is genuinely host-side)",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if !globalRandAllowed[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"global math/rand.%s draws from the shared unseeded source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed))) so runs are reproducible",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// importedPackage resolves a selector's base to an imported package
// path, when the selector is pkg.Name for some imported package pkg.
func importedPackage(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
