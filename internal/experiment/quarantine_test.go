package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"sentinel/internal/chaos"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/trace"
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

// watchKind subscribes to the bus and counts events of one kind as they
// are emitted. Quarantine events are rare and emitted early; observing
// the stream instead of scanning the ring keeps these tests immune to
// ring eviction, which depends on worker scheduling. Subscribers run
// under the bus lock, and the count is read only after Run returns, so
// a plain counter is safe.
func watchKind(bus *trace.Bus, kind trace.Kind) *int {
	n := new(int)
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == kind {
			*n++
		}
	})
	return n
}

// seededWithout copies warm's successful entries into a fresh cache as
// completed entries, leaving out the run cells of one (model, policy): a
// run on the copy recomputes only those cells, and every other cell
// returns at once.
func seededWithout(warm *Cache, modelName, policy string) *Cache {
	c := NewCache()
	for key, e := range warm.entries {
		if e.err != nil || (strings.HasPrefix(key, "run|"+modelName+"|") && strings.Contains(key, "|"+policy+"|")) {
			continue
		}
		done := &cacheEntry{val: e.val}
		done.once.Do(func() {}) // the computation already happened
		done.done.Store(true)
		c.entries[key] = done
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

// TestQuarantinePanickedCell: a cell whose simulation panics is
// quarantined with ErrCellPanicked while the remaining cells complete and
// the table renders with the incomplete marker.
func TestQuarantinePanickedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	bus := trace.NewBus(0)
	panics := watchKind(bus, trace.KCellPanic)
	o := Options{Steps: 3, Quick: true, Workers: 4, Cache: NewCache(), Trace: bus}
	o.cellHook = func(c cellRun) {
		if c.mil == 3 {
			panic("injected cell bug")
		}
	}
	tbl, err := Run("fig5", o)
	if err != nil {
		t.Fatalf("sweep failed instead of quarantining: %v", err)
	}
	rendered := tbl.String()
	if !strings.Contains(rendered, "TABLE INCOMPLETE") {
		t.Errorf("missing incomplete-table marker:\n%s", rendered)
	}
	if !strings.Contains(rendered, "cell panicked") {
		t.Errorf("footer does not name the panic:\n%s", rendered)
	}
	// The healthy cells still rendered real (non-placeholder) values.
	healthy := 0
	for _, row := range tbl.Rows {
		if row[1] != "0ns" {
			healthy++
		}
	}
	if healthy < len(tbl.Rows)-1 {
		t.Errorf("only %d of %d rows rendered despite one quarantined cell:\n%s", healthy, len(tbl.Rows), rendered)
	}
	// The quarantine is visible on the trace bus as a typed event.
	if *panics == 0 {
		t.Error("no cell-panic event on the trace bus")
	}
}

// TestQuarantineHungCell: a cell that never finishes trips the per-cell
// deadline and quarantines with ErrCellTimeout; the sweep completes.
func TestQuarantineHungCell(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	release := make(chan struct{})
	defer close(release) // unblock the abandoned goroutine at test end
	bus := trace.NewBus(0)
	timeouts := watchKind(bus, trace.KCellTimeout)
	o := Options{Steps: 3, Quick: true, Workers: 4, Cache: NewCache(), Trace: bus,
		CellTimeout: 150 * time.Millisecond}
	o.cellHook = func(c cellRun) {
		if c.mil == 5 {
			<-release // livelocked simulation
		}
	}
	tbl, err := Run("fig5", o)
	if err != nil {
		t.Fatalf("sweep failed instead of quarantining: %v", err)
	}
	rendered := tbl.String()
	if !strings.Contains(rendered, "TABLE INCOMPLETE") {
		t.Errorf("missing incomplete-table marker:\n%s", rendered)
	}
	if !strings.Contains(rendered, "cell timed out") {
		t.Errorf("footer does not name the timeout:\n%s", rendered)
	}
	if *timeouts == 0 {
		t.Error("no cell-timeout event on the trace bus")
	}
}

// TestSweepCancelRendersPartialTables: a cancelled context skips every
// cell but the experiment still returns a rendered table marked
// incomplete — the graceful-shutdown path.
func TestSweepCancelRendersPartialTables(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts: everything is skipped
	bus := trace.NewBus(0)
	cancels := watchKind(bus, trace.KSweepCancel)
	o := Options{Steps: 3, Quick: true, Workers: 4, Cache: NewCache(), Trace: bus, Ctx: ctx}
	tbl, err := Run("fig5", o)
	if err != nil {
		// Non-cell work (building the sizing spec) may also observe the
		// cancellation; that is an acceptable shutdown path too, as long
		// as it is the context error and not a crash.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep failed with a non-cancellation error: %v", err)
		}
		return
	}
	rendered := tbl.String()
	if !strings.Contains(rendered, "TABLE INCOMPLETE") {
		t.Errorf("missing incomplete-table marker:\n%s", rendered)
	}
	if !strings.Contains(rendered, "sweep cancelled") {
		t.Errorf("footer does not report the cancellation:\n%s", rendered)
	}
	if *cancels == 0 {
		t.Error("no sweep-cancel event on the trace bus")
	}
}

// TestQuarantinedCellCachesPanic: a quarantined cell's cache entry keeps
// its typed failure, never the placeholder its table renders, so a
// second sweep on the same cache quarantines the cell again instead of
// rendering the placeholder's zeros as a result.
func TestQuarantinedCellCachesPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cache := NewCache()
	o := Options{Steps: 3, Quick: true, Workers: 4, Cache: cache}
	o.cellHook = func(c cellRun) {
		if c.mil == 3 {
			panic("injected cell bug")
		}
	}
	if _, err := Run("fig5", o); err != nil {
		t.Fatal(err)
	}
	panicked := 0
	mil3 := regexp.MustCompile(`\|mil3(\||$)`)
	for key, e := range cache.entries {
		if mil3.MatchString(key) {
			var pe *PanicError
			if !errors.As(e.err, &pe) {
				t.Errorf("quarantined cell %s holds err=%v val=%v, want a *PanicError", key, e.err, e.val)
			}
			panicked++
		}
		if rs, ok := e.val.(*metrics.RunStats); ok && rs != nil &&
			reflect.DeepEqual(rs, quarantinedStats(cellRun{policy: rs.Policy, model: rs.Model, batch: rs.Batch})) {
			t.Errorf("cache entry %s holds the quarantine placeholder", key)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d cache entries for the mil3 cell, want 1", panicked)
	}
	// The second sweep's cells are healthy: only the cached failure can
	// quarantine the cell again.
	tbl, err := Run("fig5", Options{Steps: 3, Quick: true, Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rendered := tbl.String(); !strings.Contains(rendered, "TABLE INCOMPLETE") || !strings.Contains(rendered, "cell panicked") {
		t.Errorf("second sweep did not quarantine the cached failure:\n%s", rendered)
	}
}

// TestQuarantineCustomCells drives the experiments whose cells are not
// simulation cellRuns — Fig. 11's capacity searches, Table III's live
// runs, the characterization studies and Table V's max-batch searches —
// through a panicking and a hung cell. Each must still return a table
// whose footer names the faulted cell by label; the faulted row keeps its
// identity columns and renders "n/a" in every measured one, and every
// other row equals the committed golden.
func TestQuarantineCustomCells(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	tables := []struct {
		id    string
		label string // the faulted cell
		row   int    // its row
		keep  int    // identity columns the placeholder row keeps
	}{
		{"fig11", "min-fast/resnet32/b128", 1, 1},
		{"table3", "overhead/lstm/b20", 2, 2},
		{"characterization", "characterize/mobilenet/b64", 3, 1},
		{"table5", "max-batch/bert-large/gpu-hm", 1, 1},
	}
	// One clean run warms a shared cache, so every healthy cell but
	// Table III's live runs returns at once and the deadline can only
	// expire on the hung cell, even under the race detector. The hooks
	// fire before a cell computes, so the warm cache cannot hide them.
	warm := NewCache()
	for _, tb := range tables {
		if _, err := Run(tb.id, Options{Steps: 3, Quick: true, Workers: 2, Cache: warm}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range tables {
		golden := goldenCells(t, tb.id)
		for _, fault := range []string{"panic", "hang"} {
			t.Run(tb.id+"/"+fault, func(t *testing.T) {
				release := make(chan struct{})
				defer close(release) // unblock the abandoned cell at test end
				o := Options{Steps: 3, Quick: true, Workers: 2, Cache: warm}
				footer := "cell panicked: injected custom cell bug"
				if fault == "hang" {
					o.CellTimeout = time.Second
					footer = "no result after 1s: cell timed out"
				}
				o.labelHook = func(label string) {
					if label != tb.label {
						return
					}
					if fault == "panic" {
						panic("injected custom cell bug")
					}
					<-release
				}
				tbl, err := Run(tb.id, o)
				if err != nil {
					t.Fatalf("%s failed instead of quarantining: %v", tb.id, err)
				}
				checkQuarantinedRow(t, tbl, golden, tb.row, tb.keep, tb.label+": "+footer)
			})
		}
	}
}

// TestQuarantineFig11CachedProbe: a sentinel probe whose panic the plan
// cache memoized fails Fig. 11's capacity search, so the variant is
// quarantined rather than rendered with the next capacity that fits.
func TestQuarantineFig11CachedProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	warm := NewCache()
	if _, err := Run("fig11", Options{Steps: 3, Quick: true, Workers: 2, Cache: warm}); err != nil {
		t.Fatal(err)
	}
	g, err := model.BuildShared("resnet20", 128)
	if err != nil {
		t.Fatal(err)
	}
	// The golden's resnet20 minimum: 45% of peak.
	answer := int64(45.0 / 100 * float64(g.PeakMemory()))
	o := Options{Steps: 3, Quick: true, Workers: 2, Cache: seededWithout(warm, "resnet20", "sentinel")}
	o.cellHook = func(c cellRun) {
		if c.model == "resnet20" && c.policy == "sentinel" && c.spec.Fast.Size == answer {
			panic("injected probe bug")
		}
	}
	tbl, err := Run("fig11", o)
	if err != nil {
		t.Fatalf("fig11 failed instead of quarantining: %v", err)
	}
	checkQuarantinedRow(t, tbl, goldenCells(t, "fig11"), 0, 1,
		"min-fast/resnet20/b128: cell panicked: injected probe bug")
}

// checkQuarantinedRow asserts tbl quarantined exactly one cell, whose
// footer line reads "quarantined "+entry, and that it renders as golden
// except for row faulted, which keeps its first keep columns and reads
// "n/a" in the rest.
func checkQuarantinedRow(t *testing.T, tbl *Table, golden [][]string, faulted, keep int, entry string) {
	t.Helper()
	rendered := tbl.String()
	if !strings.Contains(rendered, "note: TABLE INCOMPLETE: 1 cell(s)") {
		t.Errorf("missing incomplete-table marker:\n%s", rendered)
	}
	if !strings.Contains(rendered, "note: quarantined "+entry+"\n") {
		t.Errorf("footer does not report %q:\n%s", entry, rendered)
	}
	if len(tbl.Rows) != len(golden) {
		t.Fatalf("%d rows, golden has %d:\n%s", len(tbl.Rows), len(golden), rendered)
	}
	for i, row := range tbl.Rows {
		for j, cell := range row {
			want := golden[i][j]
			if i == faulted && j >= keep {
				want = "n/a"
			}
			if cell != want {
				t.Errorf("row %d col %q renders %q, want %q", i, tbl.Header[j], cell, want)
			}
		}
	}
}

// TestValidateFailsOnQuarantinedCell: Validate's checks judge whatever
// stats their cells return, so a quarantined cell's placeholder zeros
// would pass "sentinel is fastest" at 0ns. Validate must instead fail,
// naming each quarantined cell: the Fig. 7 sentinel cell and the 3-step
// Table III one are distinct cells, so they need distinct labels.
func TestValidateFailsOnQuarantinedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	o := Options{Steps: 5}
	o.cellHook = func(c cellRun) {
		if c.model == "resnet32" && c.policy == "sentinel" {
			panic("injected cell bug")
		}
	}
	checks, err := Validate(o)
	if err == nil {
		t.Fatalf("Validate judged a quarantined cell's placeholders: %+v", checks)
	}
	for _, want := range []string{"quarantined sentinel/resnet32/b128/", "cell panicked: injected cell bug"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	labels := map[string]bool{}
	for _, m := range regexp.MustCompile(`quarantined (sentinel/resnet32/\S+): `).FindAllStringSubmatch(err.Error(), -1) {
		labels[m[1]] = true
	}
	if len(labels) != 2 {
		t.Errorf("error %q names resnet32 sentinel cells %v, want two distinct labels", err, labels)
	}
}

// TestQuarantineNamesSweepChaos: under a sweep-wide Options.Chaos the
// footer names the cell that ran, chaos key included, as its trace run
// label does.
func TestQuarantineNamesSweepChaos(t *testing.T) {
	cfg := chaos.Config{Seed: 7, MigrateSlow: 0.5}
	o := Options{Steps: 2, Quick: true, Workers: 1, NoCache: true, Chaos: cfg}
	o.cellHook = func(c cellRun) {
		if c.policy == "ial" {
			panic("injected cell bug")
		}
	}
	tb, err := Run("fig9", o)
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(tb.Notes, "\n")
	if want := "/" + cfg.Key() + ": cell panicked"; !strings.Contains(notes, want) {
		t.Errorf("footer %q does not name the cell with its chaos key %q", notes, want)
	}
}
