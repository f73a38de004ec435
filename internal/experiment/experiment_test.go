package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps the integration sweep fast.
func quickOpts() Options { return Options{Steps: 4, Quick: true} }

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if tbl.String() == "" {
				t.Fatal("empty rendering")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row width %d != header %d", len(row), len(tbl.Header))
				}
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsCoverRegistry(t *testing.T) {
	ids := IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	for _, e := range experiments {
		if !seen[e.id] || !Known(e.id) {
			t.Fatalf("registered experiment %q missing from IDs() or not Known", e.id)
		}
	}
}

// parseSpeedup reads cells like "1.23x".
func parseSpeedup(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// TestFig7Shape asserts the paper's CPU ordering on the real (non-quick)
// configuration for one model row.
func TestFig7Shape(t *testing.T) {
	tbl, err := Fig7(Options{Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ial := parseSpeedup(t, row[1])
		autotm := parseSpeedup(t, row[2])
		sentinel := parseSpeedup(t, row[3])
		fast := parseSpeedup(t, row[4])
		if !(sentinel >= autotm && autotm >= ial) {
			t.Errorf("%s: ordering broken: ial %.2f autotm %.2f sentinel %.2f", row[0], ial, autotm, sentinel)
		}
		if sentinel > fast {
			t.Errorf("%s: sentinel (%.2f) beats the fast-only reference (%.2f)", row[0], sentinel, fast)
		}
		if ial < 1.0 {
			t.Errorf("%s: IAL slower than slow-only (%.2f)", row[0], ial)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "longer"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("hello %d", 7)
	out := tbl.String()
	for _, want := range []string{"== x: demo ==", "longer", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestValidateAllChecksPass runs the full self-check: every claim the
// reproduction makes about the paper's shapes must hold.
func TestValidateAllChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	checks, err := Validate(Options{Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 9 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s FAILED: %s (%s)", c.Name, c.Claim, c.Detail)
		}
	}
}
