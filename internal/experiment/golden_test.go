package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// TestGoldenTables pins the rendered output of every experiment, the
// extras outside "all" included, in quick mode, to byte-exact snapshots
// under testdata/golden. The
// simulator is deterministic, so these only change when behaviour changes;
// in particular they hold hot-path optimizations (allocator layout, kernel
// range queries, bandwidth math) to the bar of being invisible in every
// emitted table. Regenerate deliberately with:
//
//	go test ./internal/experiment -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Run(id, Options{Steps: 3, Quick: true, Workers: 1, NoCache: true})
			if err != nil {
				t.Fatalf("run %s: %v", id, err)
			}
			got := tb.String()
			path := filepath.Join("testdata", "golden", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing snapshot (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: output diverged from committed snapshot\n--- want ---\n%s\n--- got ---\n%s", id, want, got)
			}
		})
	}
}

// TestFullFidelitySnapshots pins every experiment "sentinel-bench" runs
// by default at full fidelity (its default five steps, not quick mode) to
// the CSV "sentinel-bench -exp <id> -format csv" prints, under
// testdata/golden/full. Quick goldens miss what only full sweeps reach:
// cells the quick sweeps trim away, and step counts long enough for the
// online controller to act. The sweep shares one plan cache and runs
// cells in parallel, as the CLI does. Regenerate deliberately with:
//
//	go test ./internal/experiment -run TestFullFidelitySnapshots -update
func TestFullFidelitySnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity sweep")
	}
	o := Options{Steps: 5, Cache: NewCache()}
	for _, id := range DefaultIDs() {
		tb, err := Run(id, o)
		if err != nil {
			t.Fatalf("run %s: %v", id, err)
		}
		var got bytes.Buffer
		if err := tb.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", "full", id+".csv")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing snapshot (run with -update to create): %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: full-fidelity output diverged from committed snapshot\n--- want ---\n%s\n--- got ---\n%s", id, want, got.Bytes())
		}
	}
}
