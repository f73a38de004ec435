// Command sentinel-sweep runs a distributed experiment sweep: a
// fault-tolerant coordinator partitions the cell space into hash shards,
// leases them to workers, supervises the leases with heartbeats and
// timeouts, reassigns shards off dead workers (resuming from their
// salvaged journals), and merges the shard journals into tables that are
// byte-identical to a single-process sentinel-bench run.
//
// Workers come in two kinds, freely mixed:
//
//   - -workers-local N spawns N subprocesses of this binary in -worker
//     mode, supervised through the filesystem (journal file + exit state);
//   - -workers-remote url,url leases shards from sentinel-serve instances
//     over the HTTP protocol in docs/DISTRIBUTED.md.
//
// Degradation is built in: a shard that exhausts -max-retries is
// quarantined — its cells render as placeholders with an incomplete-table
// footer — rather than failing the sweep. See docs/DISTRIBUTED.md for the
// full failure matrix.
//
// Usage:
//
//	sentinel-sweep -workers-local 3                      # 3 subprocess workers
//	sentinel-sweep -workers-remote http://a:7070,http://b:7070
//	sentinel-sweep -exp fig7,fig10 -quick -format csv
//	sentinel-sweep -workers-local 3 -lease-ttl 30s -max-retries 3
//
// The -worker, -shard, and -worker-die-after flags are the internal
// worker mode (and its fault-injection hook for CI); they are not meant
// for interactive use.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sentinel/internal/dist"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
	"sentinel/internal/tracecli"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or comma-separated list")
		quick   = flag.Bool("quick", false, "trimmed sweeps for quick runs")
		steps   = flag.Int("steps", 5, "training steps per configuration")
		format  = flag.String("format", "text", "output format: text, csv, or json")
		workers = flag.Int("workers", 0, "worker-pool width inside each shard run (0 = GOMAXPROCS)")

		workersLocal  = flag.Int("workers-local", 0, "number of local subprocess workers")
		workersRemote = flag.String("workers-remote", "", "comma-separated sentinel-serve base URLs to lease shards from")
		shards        = flag.Int("shards", 0, "hash shards to split the sweep into (0 = one per worker)")
		leaseTTL      = flag.Duration("lease-ttl", 10*time.Second, "lease expires after this long without a successful heartbeat")
		heartbeat     = flag.Duration("heartbeat", 0, "supervision poll interval (0 = lease-ttl/4)")
		shardTimeout  = flag.Duration("shard-timeout", 0, "per-shard wall-clock bound; a slower attempt is abandoned (0 = none)")
		maxRetries    = flag.Int("max-retries", 2, "reassignments per shard before it is quarantined")
		maxWorkerFail = flag.Int("max-worker-failures", 2, "consecutive failures before a worker is retired from the fleet")
		backoff       = flag.Duration("backoff", 250*time.Millisecond, "base reassignment backoff (doubles per attempt, seeded jitter)")
		backoffCap    = flag.Duration("backoff-cap", 5*time.Second, "reassignment backoff ceiling")
		seed          = flag.Int64("seed", 1, "jitter seed (fixed seed = reproducible backoff schedule)")
		workDir       = flag.String("dir", "", "directory for worker journal directories (\"\" = system temp)")

		// Internal worker mode (spawned by -workers-local) and its CI
		// fault-injection hooks.
		workerMode = flag.Bool("worker", false, "internal: run one shard in-process and exit")
		shard      = flag.Int("shard", 0, "internal: shard index for -worker mode")
		journalDir = flag.String("journal", "", "internal: journal directory for -worker mode")
		workerDie  = flag.Int("worker-die-after", -1, "internal: SIGKILL self after N journaled cells (CI crash injection)")
		killWorker = flag.String("kill-worker", "", "CI: this local worker's first attempt dies after -kill-after-cells cells")
		killAfter  = flag.Int("kill-after-cells", 3, "CI: cells before the -kill-worker crash")
		failShard  = flag.Int("fail-shard", -1, "CI: every attempt at this shard index dies immediately")
	)
	tf := tracecli.Register()
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sentinel-sweep:", err)
		os.Exit(1)
	}

	ids := experiment.DefaultIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		fail(fmt.Errorf("unknown format %q (known: text, csv, json)", *format))
	}

	if *workerMode {
		t := dist.Task{Shard: *shard, Shards: *shards, Exps: ids, Quick: *quick, Steps: *steps}
		if err := runWorker(t, *workers, *journalDir, *workerDie); err != nil {
			fail(err)
		}
		return
	}

	urls := splitNonEmpty(*workersRemote)
	if *workersLocal <= 0 && len(urls) == 0 {
		fail(fmt.Errorf("no workers: set -workers-local and/or -workers-remote"))
	}

	exe, err := os.Executable()
	if err != nil {
		fail(fmt.Errorf("resolving own binary for -worker mode: %w", err))
	}
	var fleet []dist.Worker
	for i := 0; i < *workersLocal; i++ {
		name := fmt.Sprintf("local-%d", i)
		var attempts atomic.Int64 // for the first-attempt-only kill hook
		fleet = append(fleet, &dist.LocalWorker{
			WorkerName: name,
			Dir:        *workDir,
			Stderr:     os.Stderr,
			Command: func(t dist.Task, dir string) (string, []string) {
				args := []string{
					"-worker",
					"-shard", strconv.Itoa(t.Shard),
					"-shards", strconv.Itoa(t.Shards),
					"-exp", strings.Join(t.Exps, ","),
					"-steps", strconv.Itoa(t.Steps),
					"-workers", strconv.Itoa(*workers),
					"-journal", dir,
				}
				if t.Quick {
					args = append(args, "-quick")
				}
				// CI fault injection: a named worker's first attempt
				// crashes mid-shard; a doomed shard crashes before its
				// first cell on every attempt.
				if *killWorker == name && attempts.Add(1) == 1 {
					args = append(args, "-worker-die-after", strconv.Itoa(*killAfter))
				}
				if *failShard == t.Shard {
					args = append(args, "-worker-die-after", "0")
				}
				return exe, args
			},
		})
	}
	for _, u := range urls {
		fleet = append(fleet, &dist.RemoteWorker{
			BaseURL: u,
			TTL:     *leaseTTL,
			Client:  &dist.Client{Backoff: *backoff, BackoffCap: *backoffCap, Seed: *seed},
		})
	}

	stats := &metrics.DistStats{}
	cfg := dist.Config{
		Exps: ids, Quick: *quick, Steps: *steps,
		Shards: *shards, LeaseTTL: *leaseTTL, Heartbeat: *heartbeat,
		ShardTimeout: *shardTimeout, MaxRetries: *maxRetries,
		MaxWorkerFailures: *maxWorkerFail,
		Backoff:           *backoff, BackoffCap: *backoffCap, Seed: *seed,
		Log: os.Stderr, Trace: tf.Bus(), Stats: stats,
	}
	coord, err := dist.New(cfg, fleet)
	if err != nil {
		fail(err)
	}

	// SIGINT/SIGTERM cancel the coordination; local worker subprocesses
	// die with their contexts, remote leases are released by Kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := coord.Run(ctx)
	if err != nil {
		if werr := tf.Write(); werr != nil {
			fmt.Fprintln(os.Stderr, "sentinel-sweep: trace:", werr)
		}
		fail(err)
	}

	// Merge every salvaged journal into one cache, then render each
	// experiment through it: completed cells are served from the cache,
	// quarantined shards' cells render as placeholders with the
	// incomplete-table footer.
	cache := experiment.NewCache()
	restored, skipped := res.MergeInto(cache)
	fmt.Fprintf(os.Stderr, "dist: merged %d cell(s) from %d shard(s) (%d corrupt record(s) skipped); %s\n",
		restored, len(res.Shards), skipped, res.Stats)
	if len(res.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "dist: %d shard(s) quarantined; their cells render as placeholders\n",
			len(res.Quarantined))
	}

	opts := experiment.Options{
		Steps: *steps, Quick: *quick, Workers: *workers,
		Cache: cache, Shard: res.Plan(coord.Shards()),
	}
	var failures []string
	for _, id := range ids {
		t, err := experiment.Run(id, opts)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", id, err))
			fmt.Fprintf(os.Stderr, "sentinel-sweep: %s: %v\n", id, err)
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
		}
	}
	if err := tf.Write(); err != nil {
		fail(err)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "sentinel-sweep: %d experiment(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
}

// runWorker is -worker mode: run one hash shard of the sweep through
// dist's shard body. The journal is the product; the coordinator
// merges it.
func runWorker(t dist.Task, workers int, dir string, dieAfter int) error {
	if dir == "" {
		return fmt.Errorf("-worker requires -journal")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("-worker: %w", err)
	}
	sh, err := dist.OpenShard(dir, t)
	if err != nil {
		return err
	}
	if sh.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "sentinel-sweep[%d/%d]: resumed %d cell(s) from salvage\n", t.Shard, t.Shards, sh.Replayed)
	}
	if dieAfter >= 0 {
		sh.Progress = &crashAfter{j: sh.Journal, cells: dieAfter}
		sh.Progress.CellDone() // dies at once for 0: the doomed-shard CI hook
	}
	if err := sh.Run(context.Background(), workers); err != nil {
		return fmt.Errorf("shard %d/%d: %w", t.Shard, t.Shards, err)
	}
	fmt.Fprintf(os.Stderr, "sentinel-sweep[%d/%d]: journaled %d cell(s)\n", t.Shard, t.Shards, sh.Journal.Appended())
	return nil
}

// crashAfter is the CI fault injector: SIGKILL our own process once the
// journal holds the configured number of cells — indistinguishable from
// a real worker crash, which is the point. SIGKILL (not os.Exit) so no
// deferred cleanup runs: the journal must survive on raw append
// durability alone.
type crashAfter struct {
	j     *experiment.Journal
	cells int
}

func (c *crashAfter) AddCells(int) {}

func (c *crashAfter) CellDone() {
	if c.j.Appended() >= c.cells {
		syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck // self-SIGKILL cannot meaningfully fail
		select {}                                  // unreachable: die before journaling anything more
	}
}

// splitNonEmpty splits a comma-separated list, dropping empty entries.
func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
