// Command sentinel-benchgate runs the curated benchmark suite, records the
// results as a schema-versioned BENCH_*.json snapshot, and gates changes
// against a previously committed snapshot: it exits non-zero when any
// benchmark regresses past the configured thresholds, so CI can fail a PR
// that slows a hot path down.
//
// The suite is fixed in code (see suite below): micro-benchmarks over the
// kernel fault/migrate path, allocator place/reclaim, trace emit,
// memsys bandwidth math, graph construction, profiling, Sentinel's and
// the baselines' planning, plus the end-to-end Fig. 10 and Table V
// experiment benchmarks.
// Per-benchmark ns/op, B/op, and allocs/op are recorded together with an
// environment fingerprint. Allocation counts are machine-independent and
// gated tightly; ns/op is machine-dependent and gated with a generous
// configurable ratio, so the gate catches order-of-magnitude rot without
// flaking on runner noise. docs/BENCHMARKING.md describes the workflow,
// including how to update the baseline legitimately.
//
// Usage:
//
//	sentinel-benchgate -out BENCH_40.json -against BENCH_39.json   # run, record, gate
//	sentinel-benchgate -against BENCH_39.json                      # run and gate only
//	sentinel-benchgate -check BENCH_39.json                        # schema/shape validation
//	sentinel-benchgate -compare BENCH_40.json -against BENCH_39.json  # offline compare
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the snapshot format; bump on incompatible changes.
const Schema = "sentinel-bench/v1"

// Result is one benchmark's measurement.
type Result struct {
	// Name is the benchmark name without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Pkg is the Go package path the benchmark lives in.
	Pkg string `json:"pkg"`
	// Iters is the iteration count go test settled on.
	Iters int64 `json:"iters"`
	// NsOp, BOp, AllocsOp are the standard benchmark metrics.
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// File is one BENCH_*.json snapshot.
type File struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"num_cpu"`
	Benchtime string `json:"benchtime"`
	// Benchmarks is sorted by (pkg, name) so snapshots diff cleanly.
	Benchmarks []Result `json:"benchmarks"`
}

// suiteEntry names the benchmarks required from one package.
type suiteEntry struct {
	pkg     string
	benches []string
}

// suite is the curated benchmark set. Every entry is required: a snapshot
// missing one of these fails -check, and a run that no longer produces one
// fails the gate (a deleted benchmark cannot hide a regression).
var suite = []suiteEntry{
	{pkg: "sentinel", benches: []string{
		// End-to-end: the Fig. 10 capacity sweep regenerates an entire
		// experiment (graph build, profile, plan, simulate, render) per
		// iteration — the whole-simulator throughput number.
		"BenchmarkFig10",
		// Table V's lockstep max-batch searches, the largest experiment
		// of the quick paper sweep.
		"BenchmarkTable5",
		"BenchmarkSentinelStep",
		// Engine steps that run the GPU evictors every step:
		// Sentinel-GPU's farthest-next-use MakeRoom and UM's LRU.
		"BenchmarkSentinelGPUStep",
		"BenchmarkUMStep",
		"BenchmarkProfilingStep",
	}},
	{pkg: "sentinel/internal/kernel", benches: []string{
		"BenchmarkTouchProfiled",
		"BenchmarkTouchUnprofiled",
		"BenchmarkMigrate",
		"BenchmarkTierBytes",
	}},
	{pkg: "sentinel/internal/alloc", benches: []string{
		"BenchmarkAllocFreePacked",
		"BenchmarkAllocFreeGrouped",
		"BenchmarkReclaim",
		"BenchmarkArenaBytes",
	}},
	{pkg: "sentinel/internal/trace", benches: []string{
		"BenchmarkBusEmit",
		"BenchmarkSinkEmit",
		"BenchmarkSinkEmitDisabled",
	}},
	{pkg: "sentinel/internal/memsys", benches: []string{
		"BenchmarkChannelSubmit",
		"BenchmarkChannelSubmitUrgent",
	}},
	{pkg: "sentinel/internal/model", benches: []string{
		// Graph construction, paid once per Table V round and batch.
		"BenchmarkModelBuild",
	}},
	{pkg: "sentinel/internal/profile", benches: []string{
		// One profiling pass over a fresh runtime.
		"BenchmarkProfileCollect",
	}},
	{pkg: "sentinel/internal/core", benches: []string{
		// Sentinel's planning step alone: the interval-length model
		// and every interval's prefetch and eviction sets, on Optane
		// and on the GPU preset.
		"BenchmarkBuildPlan",
		"BenchmarkBuildPlanGPU",
	}},
	{pkg: "sentinel/internal/exec", benches: []string{
		// One engine step under a static non-Sentinel policy (AutoTM's
		// ILP placement), the ILP solved outside the timer.
		"BenchmarkAutoTMStep",
	}},
	{pkg: "sentinel/internal/baseline", benches: []string{
		// AutoTM's compile-time planning: runtime set-up plus the
		// placement ILP's branch and bound.
		"BenchmarkAutoTMSetup",
		// SwapAdvisor's compile-time planning: runtime set-up plus the
		// GA's fitness evaluations.
		"BenchmarkSwapAdvisorSetup",
	}},
}

// Thresholds bound how much worse the new run may be before the gate trips.
// A regression is declared when new > old*Ratio + Abs; the absolute slack
// keeps tiny denominators (a 5 ns benchmark, a 0-alloc benchmark) from
// flagging noise.
type Thresholds struct {
	NsRatio     float64 // ns/op ratio ceiling (machine-dependent metric)
	NsAbs       float64 // ns/op absolute slack
	AllocsRatio float64 // allocs/op ratio ceiling (deterministic metric)
	AllocsAbs   int64   // allocs/op absolute slack
	BytesRatio  float64 // B/op ratio ceiling
	BytesAbs    int64   // B/op absolute slack
}

// DefaultThresholds is tuned for same-machine comparison (local runs).
func DefaultThresholds() Thresholds {
	return Thresholds{
		NsRatio: 1.30, NsAbs: 50,
		AllocsRatio: 1.01, AllocsAbs: 1,
		BytesRatio: 1.05, BytesAbs: 64,
	}
}

// Regression is one gate violation.
type Regression struct {
	Name, Pkg, Metric string
	Old, New          float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s (%s): %s regressed %.4g -> %.4g (%.2fx)",
		r.Name, r.Pkg, r.Metric, r.Old, r.New, r.New/r.Old)
}

// Compare gates new against old and returns every violation. Benchmarks
// present only in old fail (required coverage disappeared); benchmarks
// present only in new are allowed (fresh coverage).
func Compare(old, new *File, th Thresholds) []Regression {
	newBy := make(map[string]Result, len(new.Benchmarks))
	for _, r := range new.Benchmarks {
		newBy[r.Pkg+"."+r.Name] = r
	}
	var regs []Regression
	for _, o := range old.Benchmarks {
		n, ok := newBy[o.Pkg+"."+o.Name]
		if !ok {
			regs = append(regs, Regression{Name: o.Name, Pkg: o.Pkg, Metric: "missing",
				Old: o.NsOp, New: 0})
			continue
		}
		if n.NsOp > o.NsOp*th.NsRatio+th.NsAbs {
			regs = append(regs, Regression{Name: o.Name, Pkg: o.Pkg, Metric: "ns/op",
				Old: o.NsOp, New: n.NsOp})
		}
		if n.AllocsOp > int64(float64(o.AllocsOp)*th.AllocsRatio)+th.AllocsAbs {
			regs = append(regs, Regression{Name: o.Name, Pkg: o.Pkg, Metric: "allocs/op",
				Old: float64(o.AllocsOp), New: float64(n.AllocsOp)})
		}
		if n.BOp > int64(float64(o.BOp)*th.BytesRatio)+th.BytesAbs {
			regs = append(regs, Regression{Name: o.Name, Pkg: o.Pkg, Metric: "B/op",
				Old: float64(o.BOp), New: float64(n.BOp)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Pkg != regs[j].Pkg {
			return regs[i].Pkg < regs[j].Pkg
		}
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// Validate checks a snapshot's schema and that every suite benchmark is
// present with sane values.
func Validate(f *File) error {
	if f.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", f.Schema, Schema)
	}
	if f.GoVersion == "" || f.GOOS == "" || f.GOARCH == "" {
		return fmt.Errorf("missing environment fingerprint (go/goos/goarch)")
	}
	have := make(map[string]Result, len(f.Benchmarks))
	for _, r := range f.Benchmarks {
		if r.NsOp <= 0 {
			return fmt.Errorf("%s (%s): non-positive ns/op %v", r.Name, r.Pkg, r.NsOp)
		}
		if r.Iters <= 0 {
			return fmt.Errorf("%s (%s): non-positive iteration count %d", r.Name, r.Pkg, r.Iters)
		}
		if r.BOp < 0 || r.AllocsOp < 0 {
			return fmt.Errorf("%s (%s): negative allocation metrics", r.Name, r.Pkg)
		}
		have[r.Pkg+"."+r.Name] = r
	}
	for _, e := range suite {
		for _, b := range e.benches {
			if _, ok := have[e.pkg+"."+b]; !ok {
				return fmt.Errorf("required benchmark %s missing from package %s", b, e.pkg)
			}
		}
	}
	if !sort.SliceIsSorted(f.Benchmarks, func(i, j int) bool {
		a, b := f.Benchmarks[i], f.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	}) {
		return fmt.Errorf("benchmarks not sorted by (pkg, name)")
	}
	return nil
}

// benchLine matches one go test benchmark result line, e.g.
//
//	BenchmarkFoo-8   	 1000	  1234 ns/op	  56 B/op	  7 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.eE+]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// ParseBenchOutput extracts results from go test -bench output, attributing
// them to pkg.
func ParseBenchOutput(pkg string, out []byte) []Result {
	var rs []Result
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		var bop, allocs int64
		if m[4] != "" {
			bop, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			allocs, _ = strconv.ParseInt(m[5], 10, 64)
		}
		rs = append(rs, Result{Name: m[1], Pkg: pkg, Iters: iters,
			NsOp: ns, BOp: bop, AllocsOp: allocs})
	}
	return rs
}

// cpuModel fingerprints the CPU; best-effort, "unknown" when unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runSuite executes the curated suite and assembles a snapshot.
func runSuite(benchtime string, verbose bool) (*File, error) {
	f := &File{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPU:       cpuModel(),
		NumCPU:    runtime.NumCPU(),
		Benchtime: benchtime,
	}
	for _, e := range suite {
		pattern := "^(" + strings.Join(e.benches, "|") + ")$"
		args := []string{"test", "-run", "^$", "-bench", pattern,
			"-benchmem", "-benchtime", benchtime, e.pkg}
		if verbose {
			fmt.Fprintf(os.Stderr, "benchgate: go %s\n", strings.Join(args, " "))
		}
		cmd := exec.Command("go", args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s: %v\n%s", e.pkg, err, out)
		}
		rs := ParseBenchOutput(e.pkg, out)
		got := make(map[string]bool, len(rs))
		for _, r := range rs {
			got[r.Name] = true
		}
		for _, b := range e.benches {
			if !got[b] {
				return nil, fmt.Errorf("%s: benchmark %s produced no result\n%s", e.pkg, b, out)
			}
		}
		f.Benchmarks = append(f.Benchmarks, rs...)
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		a, b := f.Benchmarks[i], f.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	return f, nil
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize prints a per-benchmark comparison table to w-like stderr.
func summarize(old, new *File) {
	oldBy := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Pkg+"."+r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "%-28s %14s %14s %8s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "ratio", "allocs/op")
	for _, n := range new.Benchmarks {
		o, ok := oldBy[n.Pkg+"."+n.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-28s %14s %14.1f %8s %12d\n",
				n.Name, "(new)", n.NsOp, "", n.AllocsOp)
			continue
		}
		fmt.Fprintf(os.Stderr, "%-28s %14.1f %14.1f %7.2fx %5d -> %d\n",
			n.Name, o.NsOp, n.NsOp, n.NsOp/o.NsOp, o.AllocsOp, n.AllocsOp)
	}
}

func main() {
	var (
		against   = flag.String("against", "", "baseline BENCH_*.json to gate against")
		out       = flag.String("out", "", "write the run's snapshot to this file")
		compare   = flag.String("compare", "", "compare this snapshot against -against without running")
		check     = flag.String("check", "", "validate a snapshot's schema and suite coverage, then exit")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime per benchmark")
		nsRatio   = flag.Float64("threshold", DefaultThresholds().NsRatio,
			"ns/op regression ratio ceiling (new/old); raise on noisy shared runners")
		allocAbs = flag.Int64("alloc-slack", DefaultThresholds().AllocsAbs,
			"allocs/op absolute slack before a regression is declared")
		bytesRatio = flag.Float64("bytes-threshold", DefaultThresholds().BytesRatio,
			"B/op regression ratio ceiling (new/old); raise when a change deliberately trades bytes for speed")
		verbose = flag.Bool("v", false, "log the go test invocations")
	)
	flag.Parse()

	if *check != "" {
		f, err := readFile(*check)
		if err == nil {
			err = Validate(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %s: schema ok, %d benchmarks, suite complete\n",
			*check, len(f.Benchmarks))
		return
	}

	th := DefaultThresholds()
	th.NsRatio = *nsRatio
	th.AllocsAbs = *allocAbs
	th.BytesRatio = *bytesRatio

	var cur *File
	var err error
	if *compare != "" {
		cur, err = readFile(*compare)
	} else {
		cur, err = runSuite(*benchtime, *verbose)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}

	if *out != "" {
		if err := writeFile(*out, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %s (%d benchmarks)\n", *out, len(cur.Benchmarks))
	}

	if *against == "" {
		return
	}
	base, err := readFile(*against)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(1)
	}
	summarize(base, cur)
	regs := Compare(base, cur, th)
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) against %s:\n", len(regs), *against)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: no regressions against %s\n", *against)
}
