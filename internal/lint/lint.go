// Package lint is sentinel-vet's analyzer framework: a pure-stdlib
// (go/ast, go/parser, go/types, go/token) static-analysis suite that
// machine-enforces the simulator's domain invariants — the properties
// the Go compiler cannot see but the reproduction's credibility rests
// on. Simulations must be bit-deterministic (the shared plan cache
// serves one cell's result for every identical key, and CLI, served and
// golden tables must match byte for byte), simulated time must
// never mix with wall-clock time, and byte counts must never be
// confused with page counts.
//
// The framework is deliberately self-contained: no x/tools dependency.
// Analyzers receive a fully type-checked package (a Pass) and report
// Diagnostics; the driver in this package loads packages, applies
// //lint:allow suppression annotations, and renders text or JSON.
// Fixture-based self-tests live under testdata/ with // want
// expectation comments, mirroring x/tools analysistest.
//
// The suite is documented check by check in docs/LINTING.md.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the check that fired, and a
// human-readable message. Positions use paths relative to the module
// root so output is stable across machines.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check, run over one package at a time.
type Analyzer struct {
	// Name is the check's identifier, used in -checks selections and
	// //lint:allow annotations.
	Name string
	// Doc is a one-line description shown by sentinel-vet -list.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	// Fset maps token positions back to file/line/col.
	Fset *token.FileSet
	// Files are the package's parsed files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// PkgPath is the package's import path within the module.
	PkgPath string

	check  string
	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		UnitSafetyAnalyzer,
		ErrWrapAnalyzer,
		CtxFirstAnalyzer,
		HotPathAnalyzer,
	}
}

// ByName resolves a list of check names to analyzers, preserving suite
// order and erroring on unknown names. An empty list selects the full
// suite.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	known := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		known[a.Name] = a
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if known[n] == nil {
			var have []string
			for _, a := range all {
				have = append(have, a.Name)
			}
			return nil, fmt.Errorf("unknown check %q (known checks: %v)", n, have)
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// sortDiagnostics orders findings by file, line, column, then check —
// the stable output order of the driver.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
