package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness is the stdlib stand-in for x/tools analysistest:
// each analyzer has a directory under testdata/src/<name>/ holding
// small packages whose lines carry `// want "regexp"` expectation
// comments. The harness loads every fixture package, runs exactly that
// analyzer (plus the driver's suppression machinery, so //lint:allow
// fixtures behave as in production), and then demands an exact match:
// every diagnostic must land on a line with a matching want, and every
// want must be hit. Unflagged lines are the negative fixtures — a
// false positive anywhere in a fixture file fails the test.

// wantRE extracts the expectation from a fixture line. The pattern is a
// Go-quoted or backquoted regular expression.
var wantRE = regexp.MustCompile(`// want (".*"|` + "`.*`" + `)\s*$`)

type wantKey struct {
	file string // relative to the fixture root
	line int
}

// parseWants scans fixture sources for expectation comments.
func parseWants(t *testing.T, root string) map[wantKey]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey]*regexp.Regexp{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat := m[1]
			if pat[0] == '"' {
				var uerr error
				pat, uerr = strconv.Unquote(pat)
				if uerr != nil {
					return fmt.Errorf("%s:%d: bad want string: %v", rel, i+1, uerr)
				}
			} else {
				pat = pat[1 : len(pat)-1] // backquoted
			}
			re, rerr := regexp.Compile(pat)
			if rerr != nil {
				return fmt.Errorf("%s:%d: bad want regexp: %v", rel, i+1, rerr)
			}
			wants[wantKey{filepath.ToSlash(rel), i + 1}] = re
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixtures loads testdata/src/<name> and checks the analyzer's
// findings against the want expectations.
func runFixtures(t *testing.T, a *Analyzer) {
	t.Helper()
	root := filepath.Join("testdata", "src", a.Name)
	loader, err := NewLoader(root, "fix")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatalf("no fixture packages under %s", root)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := RunPackages(loader, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := parseWants(t, root)
	matched := map[wantKey]bool{}
	positives := 0
	for _, d := range diags {
		k := wantKey{d.File, d.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic (false positive): %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q", d.File, d.Line, d.Message, re)
			continue
		}
		matched[k] = true
		positives++
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none (false negative)", k.file, k.line, re)
		}
	}
	if positives == 0 {
		t.Errorf("fixture for %s produced no positives; the check is not exercised", a.Name)
	}
}

func TestDeterminismFixtures(t *testing.T) { runFixtures(t, DeterminismAnalyzer) }
func TestMapOrderFixtures(t *testing.T)    { runFixtures(t, MapOrderAnalyzer) }
func TestUnitSafetyFixtures(t *testing.T)  { runFixtures(t, UnitSafetyAnalyzer) }
func TestErrWrapFixtures(t *testing.T)     { runFixtures(t, ErrWrapAnalyzer) }
func TestCtxFirstFixtures(t *testing.T)    { runFixtures(t, CtxFirstAnalyzer) }
func TestHotPathFixtures(t *testing.T)     { runFixtures(t, HotPathAnalyzer) }

// TestFixtureDrift is the CI drift gate: every analyzer in the suite
// must have a fixture directory with at least one positive expectation,
// so a new analyzer cannot land untested and a renamed analyzer cannot
// silently orphan its fixtures. (The per-analyzer fixture tests above
// enforce the exact-match half of drift: a changed message or a stale
// want fails them.)
func TestFixtureDrift(t *testing.T) {
	for _, a := range Analyzers() {
		root := filepath.Join("testdata", "src", a.Name)
		if st, err := os.Stat(root); err != nil || !st.IsDir() {
			t.Errorf("analyzer %q has no fixture directory at %s", a.Name, root)
			continue
		}
		if wants := parseWants(t, root); len(wants) == 0 {
			t.Errorf("analyzer %q fixtures carry no want expectations; the check is unexercised", a.Name)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, e := range entries {
		if e.IsDir() && !known[e.Name()] {
			t.Errorf("fixture directory %q matches no analyzer; stale after a rename?", e.Name())
		}
	}
}
