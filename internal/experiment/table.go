// Package experiment regenerates every table and figure of the paper's
// evaluation (Sec. VII) against the simulated platforms: one runner per
// experiment, each returning a text table with the same rows/series the
// paper reports. Absolute numbers differ from the authors' testbed — the
// substrate is a simulator — but the shapes (who wins, by what factor,
// where crossovers fall) are the reproduction target.
package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sentinel/internal/chaos"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes experiment execution.
type Options struct {
	// Steps per run; the last step is the steady-state measurement.
	Steps int
	// Quick trims sweeps (fewer points, smaller searches) for CI use.
	Quick bool
	// Workers bounds how many experiment cells run concurrently:
	// 0 = GOMAXPROCS, 1 = strictly sequential. Emitted tables are
	// byte-identical regardless of the setting.
	Workers int
	// NoCache disables the plan cache so every cell recomputes from
	// scratch — the -seq reference path.
	NoCache bool
	// Cache memoizes profiling runs and plan construction across cells.
	// Leave nil to have Run create a per-experiment cache; share one
	// across experiments to deduplicate a whole sweep.
	Cache *Cache
	// Progress, when non-nil, observes cell scheduling and completion
	// (metrics.NewSweepProgress renders a live counter).
	Progress Progress
	// Trace, when non-nil, captures every runtime event of every executed
	// simulation cell on one shared bus, each run stamped with the cell's
	// label. Cells served from the plan cache do not re-execute and so
	// appear in the trace only once.
	Trace *trace.Bus
	// Chaos applies fault injection to every cell that does not carry its
	// own (the -chaos-* flags of sentinel-bench). The zero value is a
	// clean run. Chaos cells are cached under chaos-qualified keys, so a
	// shared cache never serves a clean result for a perturbed cell.
	Chaos chaos.Config
	// Ctx, when non-nil, cancels the sweep: cells that have not started
	// are skipped, in-flight cells are abandoned, and tables render
	// marked incomplete. sentinel-bench wires SIGINT/SIGTERM here.
	Ctx context.Context
	// CellTimeout, when positive, is the per-cell wall-clock deadline: a
	// cell still running after it (a livelocked simulation) is abandoned
	// with ErrCellTimeout and quarantined.
	CellTimeout time.Duration
	// cellHook, when non-nil, runs at the start of every freshly
	// computed cellRun, and labelHook at the start of every cell runCell
	// runs, keyed by its label. They exist for tests: a hook that panics
	// or blocks stands in for a buggy or livelocked simulation.
	cellHook  func(c cellRun)
	labelHook func(label string)
	// quar collects panicked/timed-out/cancelled cells so Run can report
	// them in the table footer; created by normalized().
	quar *quarantine
}

// DefaultOptions returns the full-fidelity settings.
func DefaultOptions() Options { return Options{Steps: 5} }

func (o Options) steps() int {
	if o.Steps <= 0 {
		return 5
	}
	return o.Steps
}

// normalized fills derived defaults: a fresh plan cache unless caching is
// disabled or the caller supplied a shared one, and a fresh quarantine
// collector per experiment (never shared across experiments, so one
// table's footer cannot leak into the next).
func (o Options) normalized() Options {
	if o.Cache == nil && !o.NoCache {
		o.Cache = NewCache()
	}
	o.quar = &quarantine{}
	return o
}

// speedup formats a/b as "1.23x".
func speedup(base, x simtime.Duration) string {
	if x <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(x))
}

// naRow is the placeholder row of a quarantined cell: the row's identity
// columns lead, then "n/a" in every measured column up to width.
func naRow(width int, lead ...string) []string {
	row := append([]string{}, lead...)
	for len(row) < width {
		row = append(row, "n/a")
	}
	return row
}

// pctOf formats x as a percentage of base.
func pctOf(x, base simtime.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(x)/float64(base))
}
