package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenCells parses a committed snapshot back into its rows' cells,
// slicing each row line at the column widths of the dash rule under the
// header (Table.String pads every cell to its column width).
func goldenCells(t *testing.T, id string) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var widths []int
	for _, rule := range strings.Split(strings.TrimSpace(lines[2]), "  ") {
		widths = append(widths, len(rule))
	}
	var rows [][]string
	for _, line := range lines[3:] {
		if line == "" || strings.HasPrefix(line, "note: ") {
			break
		}
		row := make([]string, len(widths))
		off := 0
		for j, w := range widths {
			if off < len(line) {
				row[j] = strings.TrimRight(line[off:min(off+w, len(line))], " ")
			}
			off += w + 2
		}
		rows = append(rows, row)
	}
	return rows
}

// seededWithout copies warm's successful entries into a fresh cache,
// leaving out the run cells of one (model, policy): a run on the copy
// recomputes only those cells, and every other cell returns at once.
func seededWithout(warm *Cache, modelName, policy string) *Cache {
	c := NewCache()
	for key, e := range warm.entries {
		if e.err != nil || (strings.HasPrefix(key, "run|"+modelName+"|") && strings.Contains(key, "|"+policy+"|")) {
			continue
		}
		c.Seed(key, e.val)
	}
	return c
}

// TestQuarantineGPUTables drives the GPU comparison tables through the
// same faults the CPU tables quarantine: a panicking cell, a hung cell
// past Options.CellTimeout, and Options.Ctx cancelled mid-sweep. Each
// run must still return a table; only the faulted cell may differ from
// the committed golden (it renders the placeholder), the golden's "oom"
// cells still read "oom", and the footer accounts for the fault.
func TestQuarantineGPUTables(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	// batch is the cell's batch size, which its footer label names.
	type target struct {
		model, policy string
		batch         int
	}
	tables := []struct {
		id string
		// faulted is the cell the panic and hang hit; last is the final
		// cell of the batch, where the cancellation lands so every other
		// cell has already completed on the sequential pool.
		faulted, last target
		// placeholders maps, in the faulted row, each column the
		// quarantined cell's placeholder replaces to the text it renders.
		placeholders func(header []string, policy string) map[int]string
	}{
		{
			id:      "fig12",
			faulted: target{"resnet200", "capuchin", 192},
			last:    target{"mobilenet", "sentinel-gpu", 1024},
			placeholders: func(header []string, policy string) map[int]string {
				for j, h := range header {
					if h == policy {
						return map[int]string{j: "n/a"}
					}
				}
				return nil
			},
		},
		{
			id:      "fig13",
			faulted: target{"resnet200", "capuchin", 192},
			last:    target{"bert-large", "sentinel-gpu-detmi", 64},
			placeholders: func([]string, string) map[int]string {
				return map[int]string{2: "0ns", 3: "0ns (n/a)", 4: "0ns (n/a)", 5: "0B"}
			},
		},
	}
	faults := []struct {
		name   string
		footer string
	}{
		{"panic", "cell panicked: injected GPU cell bug"},
		{"hang", "cell timed out"},
		{"cancel", "sweep cancelled: abandoned: context canceled"},
	}
	for _, tb := range tables {
		golden := goldenCells(t, tb.id)
		// The faulted runs start from a cache a clean run warmed, less
		// the faulted cell, so the 150 ms deadline can only expire on
		// the hung cell, even when the race detector slows the healthy
		// cells past it.
		warm := NewCache()
		if _, err := Run(tb.id, Options{Steps: 3, Quick: true, Workers: 2, Cache: warm}); err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			t.Run(tb.id+"/"+f.name, func(t *testing.T) {
				release := make(chan struct{})
				defer close(release) // unblock the abandoned cell at test end
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				o := Options{Steps: 3, Quick: true, Workers: 2}
				hit := tb.faulted
				switch f.name {
				case "hang":
					o.CellTimeout = 150 * time.Millisecond
				case "cancel":
					o.Workers, o.Ctx, hit = 1, ctx, tb.last
				}
				o.Cache = seededWithout(warm, hit.model, hit.policy)
				o.cellHook = func(c cellRun) {
					if c.model != hit.model || c.policy != hit.policy {
						return
					}
					switch f.name {
					case "panic":
						panic("injected GPU cell bug")
					case "cancel":
						cancel()
					}
					<-release
				}
				tbl, err := Run(tb.id, o)
				if err != nil {
					t.Fatalf("%s failed instead of quarantining: %v", tb.id, err)
				}
				rendered := tbl.String()
				if !strings.Contains(rendered, "note: TABLE INCOMPLETE: 1 cell(s)") {
					t.Errorf("missing incomplete-table marker:\n%s", rendered)
				}
				if !strings.Contains(rendered, f.footer) {
					t.Errorf("footer does not report %q:\n%s", f.footer, rendered)
				}
				if want := fmt.Sprintf("quarantined %s/%s/b%d/", hit.policy, hit.model, hit.batch); !strings.Contains(rendered, want) {
					t.Errorf("footer does not name the cell (%q):\n%s", want, rendered)
				}
				if len(tbl.Rows) != len(golden) {
					t.Fatalf("%d rows, golden has %d:\n%s", len(tbl.Rows), len(golden), rendered)
				}
				for i, row := range tbl.Rows {
					want := golden[i]
					var stale map[int]string
					if want[0] == hit.model && (tb.id == "fig12" || want[1] == hit.policy) {
						stale = tb.placeholders(tbl.Header, hit.policy)
					}
					for j, cell := range row {
						placeholder, faulted := stale[j]
						switch {
						case faulted:
							if cell != placeholder {
								t.Errorf("row %d col %q: faulted cell renders %q, want placeholder %q", i, tbl.Header[j], cell, placeholder)
							}
						case want[j] == "oom" && cell != "oom":
							t.Errorf("row %d col %q: golden oom cell renders %q", i, tbl.Header[j], cell)
						case cell != want[j]:
							t.Errorf("row %d col %q: healthy cell renders %q, golden %q", i, tbl.Header[j], cell, want[j])
						}
					}
				}
			})
		}
	}
}
