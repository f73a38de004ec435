// Command sentinel-bench regenerates the paper's evaluation: every table
// and figure of Sec. VII, against the simulated Optane and GPU platforms.
//
// Experiment cells (one simulation per model × policy × capacity point)
// fan out over a worker pool and share a plan cache, so a full sweep runs
// as wide as the machine allows while emitting tables byte-identical to a
// sequential run.
//
// A faulty cell does not sink the sweep: -cell-timeout quarantines
// livelocked cells, and SIGINT/SIGTERM cancels cleanly — in-flight cells
// are abandoned, the trace is flushed, and partial tables are emitted
// marked incomplete. A killed sweep is recovered by running it again.
//
// Usage:
//
//	sentinel-bench                 # run everything, GOMAXPROCS-wide
//	sentinel-bench -exp fig7       # one experiment
//	sentinel-bench -workers 4      # bound the worker pool
//	sentinel-bench -seq            # sequential reference path (no pool, no cache)
//	sentinel-bench -quick          # trimmed sweeps
//	sentinel-bench -list           # list experiment ids
//	sentinel-bench -cell-timeout 5m       # quarantine cells stuck past 5 minutes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sentinel/internal/chaos"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
	"sentinel/internal/tracecli"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id or comma-separated list (see -list)")
		quick       = flag.Bool("quick", false, "trimmed sweeps for quick runs")
		steps       = flag.Int("steps", 5, "training steps per configuration")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		format      = flag.String("format", "text", "output format: text, csv, or json")
		workers     = flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS, 1 = sequential)")
		seq         = flag.Bool("seq", false, "sequential reference path: one worker, plan cache disabled")
		progress    = flag.Bool("progress", stderrIsTerminal(), "live cell-completion progress on stderr")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell wall-clock deadline; cells past it are quarantined (0 = none)")
	)
	tf := tracecli.Register()
	cf := chaos.RegisterFlags()
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sentinel-bench:", err)
		os.Exit(1)
	}
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return
	}

	// SIGINT/SIGTERM cancel the sweep: cells not yet started are skipped,
	// in-flight cells are abandoned, and everything below the experiment
	// loop — trace export, partial tables — still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiment.Options{Steps: *steps, Quick: *quick, Workers: *workers,
		Trace: tf.Bus(), Chaos: *cf, Ctx: ctx, CellTimeout: *cellTimeout}
	if *seq {
		// The reference path the golden determinism tests compare
		// against: strictly sequential and cache-free.
		opts.Workers = 1
		opts.NoCache = true
	} else {
		// One cache across the whole sweep: recurring cells (fast-only
		// references, repeated model/policy pairs) compute once.
		opts.Cache = experiment.NewCache()
	}
	var sp *metrics.SweepProgress
	if *progress {
		sp = metrics.NewSweepProgress(os.Stderr)
		opts.Progress = sp
	}
	//lint:allow determinism: CLI-only wall-clock for the sweep timing line on stderr; table bytes never depend on it
	sweepStart := time.Now()
	ids := experiment.DefaultIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	// Every requested experiment runs even if an earlier one fails; the
	// failures are reported together at the end and the exit code is
	// non-zero. Cancellation is the one early exit — and even then the
	// trace and summary still flush below.
	var failures []string
	ran := 0
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		id = strings.TrimSpace(id)
		//lint:allow determinism: CLI-only wall-clock for the per-experiment timing line; csv/json formats omit it
		start := time.Now()
		t, err := experiment.Run(id, opts)
		if sp != nil {
			sp.Break()
		}
		ran++
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", id, err))
			fmt.Fprintf(os.Stderr, "sentinel-bench: %s: %v\n", id, err)
			continue
		}
		switch *format {
		case "csv":
			if err := t.WriteCSV(os.Stdout); err != nil {
				fail(err)
			}
		case "json":
			if err := t.WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
		default:
			fmt.Println(t)
			//lint:allow determinism: text-format timing line is explicitly wall-clock; csv and json, which byte-identity checks compare, omit it
			fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if sp != nil {
		fmt.Fprintf(os.Stderr, "sweep: %s across %d experiments (wall-clock %v)\n",
			//lint:allow determinism: stderr sweep summary is explicitly labelled wall-clock
			sp.Summary(), ran, time.Since(sweepStart).Round(time.Millisecond))
	}
	if opts.Cache != nil && *progress {
		fmt.Fprintf(os.Stderr, "cache: %s\n", opts.Cache.Stats())
	}
	if err := tf.Write(); err != nil {
		fail(err)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "sweep interrupted after %d/%d experiments; the partial tables above are marked TABLE INCOMPLETE\n",
			ran, len(ids))
		os.Exit(130)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "sentinel-bench: %d experiment(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
}

// stderrIsTerminal reports whether stderr is an interactive terminal; the
// live progress line defaults on only there (CI logs get one summary line).
func stderrIsTerminal() bool {
	st, err := os.Stderr.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}
