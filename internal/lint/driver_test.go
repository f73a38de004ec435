package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module and returns a
// loader for it.
func writeModule(t *testing.T, src string) *Loader {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "pkg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pkg", "pkg.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir, "tmpmod")
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

func runOn(t *testing.T, loader *Loader, checks ...string) []Diagnostic {
	t.Helper()
	analyzers, err := ByName(checks)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(loader, []string{"pkg"}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestSuppressionParsing: well-formed //lint:allow lines suppress on
// their own line and the line below; malformed ones are diagnostics in
// their own right.
func TestSuppressionParsing(t *testing.T) {
	loader := writeModule(t, `package pkg

import "time"

func a() time.Time {
	//lint:allow determinism: host-side timestamp for log lines
	return time.Now()
}

func b() time.Time {
	return time.Now() //lint:allow determinism: trailing annotation form
}

func c() time.Time {
	//lint:allow
	return time.Now()
}

func d() time.Time {
	//lint:allow determinism
	return time.Now()
}

func e() time.Time {
	//lint:allow nosuchcheck: because reasons
	return time.Now()
}

func f() time.Time {
	//lint:allow determinism pre-colon reason prose without the separator
	return time.Now()
}

func g() time.Time {
	//lint:allow determinism:
	return time.Now()
}
`)
	diags := runOn(t, loader, "determinism")

	var directive, determinism []Diagnostic
	for _, d := range diags {
		switch d.Check {
		case DirectiveCheck:
			directive = append(directive, d)
		case "determinism":
			determinism = append(determinism, d)
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}

	// a and b are suppressed; c through g are not (their directives are
	// malformed, bare, or name an unknown check), so five findings
	// survive.
	if len(determinism) != 5 {
		t.Errorf("want 5 surviving determinism findings (suppressions in c/d/e/f/g are broken), got %d:\n%v", len(determinism), determinism)
	}
	wantDirectives := []string{
		"missing check name and reason",
		"missing ': <reason>' suffix",
		`unknown check "nosuchcheck"`,
		"the check name must be followed by ': <reason>'",
		"missing ': <reason>' suffix",
	}
	if len(directive) != len(wantDirectives) {
		t.Fatalf("want %d directive diagnostics, got %d:\n%v", len(wantDirectives), len(directive), directive)
	}
	for i, want := range wantDirectives {
		if !strings.Contains(directive[i].Message, want) {
			t.Errorf("directive diagnostic %d = %q, want it to mention %q", i, directive[i].Message, want)
		}
	}
}

// TestSuppressionDoesNotLeak: an allow for one check does not suppress
// another check's finding on the same line.
func TestSuppressionDoesNotLeak(t *testing.T) {
	loader := writeModule(t, `package pkg

import "time"

func a() time.Time {
	//lint:allow maporder: wrong check on purpose
	return time.Now()
}
`)
	diags := runOn(t, loader, "determinism")
	if len(diags) != 1 || diags[0].Check != "determinism" {
		t.Fatalf("want the determinism finding to survive a maporder allow, got %v", diags)
	}
}

// TestUnknownCheckName: the -checks path must reject unknown names
// loudly instead of silently running nothing.
func TestUnknownCheckName(t *testing.T) {
	_, err := ByName([]string{"determinism", "bogus"})
	if err == nil {
		t.Fatal("ByName accepted an unknown check name")
	}
	if !strings.Contains(err.Error(), `unknown check "bogus"`) {
		t.Errorf("error %q does not name the bad check", err)
	}
	if !strings.Contains(err.Error(), "determinism") {
		t.Errorf("error %q does not list the known checks", err)
	}
}

// TestJSONGolden pins the JSON output schema: findings array (never
// null) plus count, with the per-finding field names fixed.
func TestJSONGolden(t *testing.T) {
	var b strings.Builder
	diags := []Diagnostic{
		{File: "internal/exec/runtime.go", Line: 42, Col: 7, Check: "determinism",
			Message: "wall-clock time.Now in simulation code"},
		{File: "internal/experiment/journal.go", Line: 9, Col: 2, Check: "maporder",
			Message: "append inside iteration over map m"},
	}
	if err := WriteJSON(&b, diags); err != nil {
		t.Fatal(err)
	}
	golden := `{
  "findings": [
    {
      "file": "internal/exec/runtime.go",
      "line": 42,
      "col": 7,
      "check": "determinism",
      "message": "wall-clock time.Now in simulation code"
    },
    {
      "file": "internal/experiment/journal.go",
      "line": 9,
      "col": 2,
      "check": "maporder",
      "message": "append inside iteration over map m"
    }
  ],
  "count": 2
}
`
	if b.String() != golden {
		t.Errorf("JSON schema drifted:\n got: %s\nwant: %s", b.String(), golden)
	}

	// Empty runs must still produce an indexable array.
	b.Reset()
	if err := WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"findings\": [],\n  \"count\": 0\n}\n"; b.String() != want {
		t.Errorf("empty JSON = %q, want %q", b.String(), want)
	}
}

// TestRunEndToEnd: the driver loads, analyzes, suppresses, and sorts
// across a real (temp) module, with paths relative to the module root.
func TestRunEndToEnd(t *testing.T) {
	loader := writeModule(t, `package pkg

import "time"

func tick() time.Time { return time.Now() }
`)
	diags := runOn(t, loader)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding, got %v", diags)
	}
	d := diags[0]
	if d.File != "pkg/pkg.go" || d.Check != "determinism" || d.Line != 5 {
		t.Errorf("unexpected finding: %+v", d)
	}
}

// writeMultiModule lays out a throwaway module with several packages
// (name -> source) and returns its root.
func writeMultiModule(t *testing.T, pkgs map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range pkgs {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, name+".go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadImportCycle: a module-internal import cycle (illegal Go, but
// a loader must not hang or overflow on it) is an error naming a
// member of the cycle.
func TestLoadImportCycle(t *testing.T) {
	dir := writeMultiModule(t, map[string]string{
		"ping": `package ping

import "tmpmod/pong"

func Ping() int { return pong.Pong() }
`,
		"pong": `package pong

import "tmpmod/ping"

func Pong() int { return ping.Ping() }
`,
	})
	loader, err := NewLoader(dir, "tmpmod")
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.LoadAll([]string{filepath.Join(dir, "ping"), filepath.Join(dir, "pong")})
	if err == nil {
		t.Fatal("LoadAll accepted an import cycle")
	}
	if !strings.Contains(err.Error(), "import cycle through tmpmod/ping") {
		t.Errorf("error %q does not name the cycle", err)
	}
}

// TestLoadBrokenDependency: a dependency that fails to type-check
// reports its own error to every importer. The second importer must
// see the memoized failure, not mistake the broken package for one
// still loading (an import cycle).
func TestLoadBrokenDependency(t *testing.T) {
	dir := writeMultiModule(t, map[string]string{
		"broken": `package broken

func Bad() int { return "not an int" }
`,
		"left": `package left

import "tmpmod/broken"

func Left() int { return broken.Bad() }
`,
		"right": `package right

import "tmpmod/broken"

func Right() int { return broken.Bad() }
`,
	})
	loader, err := NewLoader(dir, "tmpmod")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"left", "right"} {
		_, err := loader.LoadDir(filepath.Join(dir, name))
		if err == nil {
			t.Fatalf("loading %s: want the broken dependency's error, got nil", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "type-checking tmpmod/broken") || strings.Contains(msg, "cycle") {
			t.Errorf("loading %s: error %q does not report broken's own type error", name, msg)
		}
	}
}

// TestLoadAllDependencyOrder: LoadAll returns requested packages in
// dependency order (a package after everything it imports), with the
// same order on every run.
func TestLoadAllDependencyOrder(t *testing.T) {
	mod := map[string]string{
		"base": `package base

func Zero() int { return 0 }
`,
		"mid": `package mid

import "tmpmod/base"

func One() int { return base.Zero() + 1 }
`,
		"top": `package top

import (
	"tmpmod/base"
	"tmpmod/mid"
)

func Two() int { return base.Zero() + mid.One() }
`,
		"side": `package side

import "tmpmod/base"

func Three() int { return base.Zero() + 3 }
`,
	}
	dir := writeMultiModule(t, mod)

	var first []string
	const rounds = 5
	for round := 0; round < rounds; round++ {
		loader, err := NewLoader(dir, "tmpmod")
		if err != nil {
			t.Fatal(err)
		}
		dirs, err := loader.ExpandPatterns([]string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.LoadAll(dirs)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		index := map[string]int{}
		for i, p := range pkgs {
			order = append(order, p.Path)
			index[p.Path] = i
		}
		deps := map[string][]string{
			"tmpmod/mid":  {"tmpmod/base"},
			"tmpmod/top":  {"tmpmod/base", "tmpmod/mid"},
			"tmpmod/side": {"tmpmod/base"},
		}
		for pkg, ds := range deps {
			for _, dep := range ds {
				if index[dep] >= index[pkg] {
					t.Fatalf("round %d: %s (pos %d) must follow its dependency %s (pos %d); order %v",
						round, pkg, index[pkg], dep, index[dep], order)
				}
			}
		}
		if round == 0 {
			first = order
		} else if strings.Join(order, " ") != strings.Join(first, " ") {
			t.Fatalf("round %d: order %v differs from first round %v", round, order, first)
		}
	}
}

// TestRunDeterministic: the full driver produces byte-identical
// diagnostics run after run on a module with several packages sharing
// one dependency.
func TestRunDeterministic(t *testing.T) {
	mod := map[string]string{}
	// base plus fan-out packages that each import base and carry one
	// finding, so diagnostics span many packages.
	mod["base"] = `package base

func Zero() int { return 0 }
`
	for _, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		mod[name] = `package ` + name + `

import (
	"time"

	"tmpmod/base"
)

func Tick() time.Time {
	_ = base.Zero()
	return time.Now()
}
`
	}
	dir := writeMultiModule(t, mod)

	var first string
	for round := 0; round < 3; round++ {
		loader, err := NewLoader(dir, "tmpmod")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(loader, []string{"./..."}, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 5 {
			t.Fatalf("round %d: want 5 determinism findings, got %v", round, diags)
		}
		var b strings.Builder
		WriteText(&b, diags)
		if round == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("round %d output differs:\n%s\nvs first:\n%s", round, b.String(), first)
		}
	}
}

// TestExpandPatternsSkipsTestdata: fixture trees must not be vetted as
// production code.
func TestExpandPatternsSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".", "lintmod")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("pattern expansion descended into %s", d)
		}
	}
}
