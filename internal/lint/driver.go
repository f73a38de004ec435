package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"io"
	"path/filepath"
	"strings"
)

// DirectiveCheck is the pseudo-check name under which malformed
// //lint:allow lines are reported. A broken suppression is worse than a
// missing one — it silently fails to suppress — so it is a finding
// itself. Directive diagnostics cannot be suppressed.
const DirectiveCheck = "lintdirective"

// allowKey locates one suppression: a file line may allow one or more
// checks.
type allowKey struct {
	file string
	line int
}

// suppressions maps (file, line) to the set of checks allowed there.
type suppressions map[allowKey]map[string]bool

// allowPrefix is the suppression annotation marker. The full syntax is
//
//	//lint:allow <check>: <reason...>
//
// placed either on the flagged line (trailing comment) or on the line
// immediately above it. The `: reason` suffix is mandatory: an
// unexplained suppression is a review problem, not an engineering
// decision, and the colon keeps the check name unambiguous — the
// driver errors on bare suppressions instead of guessing where the
// name ends and the excuse begins.
const allowPrefix = "lint:allow"

// scanSuppressions walks a file's comments collecting //lint:allow
// annotations; malformed ones become diagnostics. knownChecks guards
// against suppressing a check that does not exist (usually a typo that
// would otherwise silently suppress nothing).
func scanSuppressions(p *Package, fset interface {
	Position(p ast.Node) (file string, line int)
}, known map[string]bool, sup suppressions, report func(Diagnostic)) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments are not directives
				}
				if !strings.HasPrefix(strings.TrimSpace(text), allowPrefix) {
					continue
				}
				file, line := fset.Position(c)
				rest := strings.TrimPrefix(strings.TrimSpace(text), allowPrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. lint:allowance — not our directive
				}
				name, reason, hasColon := strings.Cut(strings.TrimSpace(rest), ":")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					report(Diagnostic{File: file, Line: line, Col: 1, Check: DirectiveCheck,
						Message: "malformed //lint:allow: missing check name and reason (syntax: //lint:allow <check>: <reason>)"})
				case len(strings.Fields(name)) > 1:
					report(Diagnostic{File: file, Line: line, Col: 1, Check: DirectiveCheck,
						Message: fmt.Sprintf("malformed //lint:allow %s: the check name must be followed by ': <reason>' (syntax: //lint:allow <check>: <reason>)", strings.Fields(name)[0])})
				case !hasColon || reason == "":
					report(Diagnostic{File: file, Line: line, Col: 1, Check: DirectiveCheck,
						Message: fmt.Sprintf("bare //lint:allow %s: missing ': <reason>' suffix (syntax: //lint:allow <check>: <reason>)", name)})
				case !known[name]:
					report(Diagnostic{File: file, Line: line, Col: 1, Check: DirectiveCheck,
						Message: fmt.Sprintf("//lint:allow names unknown check %q", name)})
				default:
					k := allowKey{file, line}
					if sup[k] == nil {
						sup[k] = map[string]bool{}
					}
					sup[k][name] = true
				}
			}
		}
	}
}

// suppressed reports whether d is covered by an allow annotation on its
// own line or the line immediately above.
func (s suppressions) suppressed(d Diagnostic) bool {
	if d.Check == DirectiveCheck {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		if s[allowKey{d.File, line}][d.Check] {
			return true
		}
	}
	return false
}

// Run loads every package matched by patterns and applies the given
// analyzers, returning surviving (non-suppressed) diagnostics in stable
// order. File paths in diagnostics are relative to the module root.
func Run(loader *Loader, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll(dirs)
	if err != nil {
		return nil, err
	}
	return RunPackages(loader, pkgs, analyzers)
}

// RunPackages applies the analyzers to already-loaded packages.
func RunPackages(loader *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	var diags []Diagnostic
	sup := suppressions{}
	relFile := func(file string) string {
		if rel, err := filepath.Rel(loader.ModRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return filepath.ToSlash(file)
	}

	for _, pkg := range pkgs {
		scanSuppressions(pkg, nodePositioner{loader, relFile}, known, sup, func(d Diagnostic) {
			diags = append(diags, d)
		})
		for _, a := range analyzers {
			pass := &Pass{
				Fset:    loader.Fset,
				Files:   pkg.Files,
				Pkg:     pkg.Types,
				Info:    pkg.Info,
				PkgPath: pkg.Path,
				check:   a.Name,
				report: func(d Diagnostic) {
					d.File = relFile(d.File)
					diags = append(diags, d)
				},
			}
			a.Run(pass)
		}
	}

	var out []Diagnostic
	for _, d := range diags {
		if !sup.suppressed(d) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// nodePositioner adapts the loader's FileSet to the narrow interface
// scanSuppressions needs, rewriting paths relative to the module root
// so suppression keys match diagnostic keys.
type nodePositioner struct {
	loader *Loader
	rel    func(string) string
}

func (np nodePositioner) Position(n ast.Node) (string, int) {
	pos := np.loader.Fset.Position(n.Pos())
	return np.rel(pos.Filename), pos.Line
}

// WriteText renders diagnostics one per line in file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}

// jsonReport is the stable JSON output schema, golden-tested.
type jsonReport struct {
	Findings []Diagnostic `json:"findings"`
	Count    int          `json:"count"`
}

// WriteJSON renders diagnostics as a single JSON document:
//
//	{"findings": [{"file": ..., "line": ..., "col": ..., "check": ...,
//	 "message": ...}, ...], "count": N}
//
// findings is always an array (never null) so consumers can index it
// unconditionally.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Findings: diags, Count: len(diags)})
}
