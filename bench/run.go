package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"sentinel/internal/metrics"
)

// Workload names.
const (
	paperSweep  = "paper-sweep"
	steadySteps = "steady-steps"
	coldPlan    = "cold-plan"
	serveMixed  = "serve-mixed"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

var workloads = []workload{
	{
		name: paperSweep,
		why:  "The researchers' dev loop: the whole quick paper sweep over the pool and one shared cache; AutoTM's ILP in table5 dominates. Every table must match its golden.",
		run:  runPaperSweep,
	},
	{
		name: steadySteps,
		why:  "The engine hot loop: nine warmed runtimes stepped round-robin over CPU and GPU policies and both chaos degradation paths, with planning, cache and HTTP left out.",
		run:  runSteadySteps,
	},
	{
		name: coldPlan,
		why:  "Sentinel's pipeline with nothing cached: build, profiling step, plan and managed steps for distinct seeded CPU and GPU cells, what every sweep or served miss pays.",
		run:  runColdPlan,
	},
	{
		name: serveMixed,
		why:  "The server's handler, admission, JSON and the cache hit path with misses alongside: 1 closed-loop caller on a synthetic mix, 90% reads of 64 warmed keys and 10% fresh keys, 40% plan and 60% simulate.",
		run:  runServeMixed,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size fixes the work of one segment. Every segment of every run does
// the same work, so a parent and a child commit compare like for like;
// only the number of segments follows the time budget.
type size struct {
	sweepIDs []string // paper-sweep: the experiments of one sweep
	rounds   int      // steady-steps: rounds over the nine runtimes
	cells    int      // cold-plan: cells
	requests int      // serve-mixed: requests
}

// config is one run's settings.
type config struct {
	seed   int64
	budget time.Duration // how long to keep starting segments
	traced bool
	root   string // repository root; the goldens live under it
	size   size
}

// minSegments is the fewest segments a run measures, whatever its
// budget: later segments are checked against the first.
const minSegments = 2

// run collects one run's samples. Its methods are called from one
// goroutine.
type run struct {
	config
	spans    *spanLog // nil unless traced
	lastOp   int64
	segments int

	setupS    []float64 // CPU seconds, one per segment
	opMS      []float64 // every op's CPU time, pooled over segments
	rates     []float64 // ops per CPU second, one per segment
	wallRates []float64 // ops per wall-clock second, one per segment
	attempted int
	failed    int
	problems  []string
	digest    string             // sim_digest: the first segment's simulated outputs
	layer     map[string]float64 // per-layer metrics (traced runs)
	checks    []string           // reconciliation results (traced runs)
}

func newRun(cfg config) *run {
	r := &run{config: cfg, layer: map[string]float64{}}
	resetYardstick()
	if cfg.traced {
		r.spans = newSpanLog()
	}
	return r
}

// loop runs seg until the budget is spent, and at least minSegments
// times.
func (r *run) loop(seg func() error) error {
	start := now()
	for r.segments < minSegments || since(start) < r.budget {
		// Collect the previous segment's garbage outside any timing, so
		// that no segment pays for another's.
		runtime.GC()
		if err := seg(); err != nil {
			return err
		}
		r.segments++
	}
	return nil
}

// setup times one segment's preparation, which no other metric counts.
func (r *run) setup(f func() error) error {
	t := startTimer()
	err := f()
	r.setupS = append(r.setupS, t.lap().cpu.Seconds())
	return err
}

func (r *run) newOp() int64 {
	r.lastOp++
	return r.lastOp
}

// op records one attempted operation, failed when err is non-nil.
func (r *run) op(d lap, err error) {
	r.attempted++
	r.opMS = append(r.opMS, ms(d.cpu))
	if err != nil {
		r.fail(err)
	}
}

func (r *run) fail(err error) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, err.Error())
	}
}

// rate records a segment that completed n ops in d.
func (r *run) rate(n int, d lap) {
	r.rates = append(r.rates, float64(n)/d.cpu.Seconds())
	r.wallRates = append(r.wallRates, float64(n)/d.wall.Seconds())
}

// reconcile records whether a layer breakdown adds up to the end-to-end
// time it explains, within limitPct percent.
func (r *run) reconcile(what string, parts, whole, limitPct float64) {
	off := 100 * (parts/whole - 1)
	verdict := "ok"
	if off > limitPct || off < -limitPct {
		verdict = "FAIL"
	}
	r.checks = append(r.checks, fmt.Sprintf("reconcile %s: %.4g ms vs %.4g ms, %+.1f%% (limit %g%%): %s",
		what, parts, whole, off, limitPct, verdict))
}

// simDigest accumulates the digests of a segment's ops into sim_digest.
type simDigest struct{ h hash.Hash }

func newSimDigest() simDigest { return simDigest{sha256.New()} }

func (d simDigest) add(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d simDigest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

// hashInts is a cheap digest of simulated integers.
func hashInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// stepDigest digests everything a step simulated.
func stepDigest(h hash.Hash64, st *metrics.StepStats) {
	div := int64(0)
	if st.Diverged {
		div = 1
	}
	hashInts(h, int64(st.Duration), int64(st.ComputeTime), int64(st.MemTime),
		int64(st.StallTime), int64(st.FaultTime), int64(st.RecomputeTime),
		st.MigratedIn, st.MigratedOut, st.DemandMigrations, st.FastBytes, st.SlowBytes,
		st.Faults, st.MigrateRetries, st.Degraded, div, st.PeakMapped, st.PeakFastUsed)
}

// runDigest digests a whole simulated run.
func runDigest(rs *metrics.RunStats) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rs.Policy + "/" + rs.Model))
	hashInts(h, int64(rs.Batch), int64(len(rs.Steps)), int64(rs.Replans), int64(rs.RecoveredSteps))
	for _, st := range rs.Steps {
		stepDigest(h, st)
	}
	return h.Sum64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
