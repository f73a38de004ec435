// Command sentinel-benchgate gates a change against its parent commit,
// measured on the same machine in the same hour: it checks the parent out
// into a temporary git worktree, runs the curated benchmark suite in both
// trees for a fixed number of pairs, alternating which side runs first,
// and exits non-zero when a benchmark's median on the change side regresses
// past the gate's bounds against its median on the parent side. With -out,
// the change side's medians are written as a schema-versioned BENCH_*.json
// record. docs/BENCHMARKING.md describes the workflow.
//
// Usage:
//
//	sentinel-benchgate                      # gate the tree against its parent
//	sentinel-benchgate -out BENCH_N.json    # gate, and record the change side
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Schema identifies the snapshot format; bump on incompatible changes.
const Schema = "sentinel-bench/v1"

// pairs is how many times the suite runs on each side. The side that runs
// first alternates from pair to pair, so slow load drift reaches both alike.
const pairs = 7

// The gate's bounds: a change's median regresses past parent*ratio + slack.
// The slack keeps a 5 ns or a 0-alloc benchmark from flagging noise.
const (
	nsRatio, nsSlack         = 1.30, 50
	allocsRatio, allocsSlack = 1.01, 1
	bytesRatio, bytesSlack   = 1.05, 64
)

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

// suite is the curated benchmark set. Every entry is required: a change
// that no longer produces one fails the gate (a deleted benchmark cannot
// hide a regression), while one the parent lacks is fresh coverage.
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
		// Engine steps that run the GPU evictors every step: Sentinel's
		// farthest-next-use MakeRoom on the GPU preset and UM's LRU.
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
	{pkg: "sentinel/internal/serve", benches: []string{
		// The HTTP layer: a plan and a simulate request a warmed server
		// answers from its stored replies, through the handler.
		"BenchmarkServeHit",
	}},
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

// Compare gates new against old and returns every violation, in old's
// order. Benchmarks present only in old fail (required coverage
// disappeared); benchmarks present only in new are allowed (fresh coverage).
func Compare(old, new *File) []Regression {
	newBy := make(map[string]Result, len(new.Benchmarks))
	for _, r := range new.Benchmarks {
		newBy[r.Pkg+"."+r.Name] = r
	}
	var regs []Regression
	for _, o := range old.Benchmarks {
		n, ok := newBy[o.Pkg+"."+o.Name]
		trip := func(metric string, old, new float64) {
			regs = append(regs, Regression{Name: o.Name, Pkg: o.Pkg, Metric: metric, Old: old, New: new})
		}
		if !ok {
			trip("missing", o.NsOp, 0)
			continue
		}
		if n.NsOp > o.NsOp*nsRatio+nsSlack {
			trip("ns/op", o.NsOp, n.NsOp)
		}
		if n.AllocsOp > int64(float64(o.AllocsOp)*allocsRatio)+allocsSlack {
			trip("allocs/op", float64(o.AllocsOp), float64(n.AllocsOp))
		}
		if n.BOp > int64(float64(o.BOp)*bytesRatio)+bytesSlack {
			trip("B/op", float64(o.BOp), float64(n.BOp))
		}
	}
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
	for i, r := range f.Benchmarks {
		if i > 0 && less(r, f.Benchmarks[i-1]) {
			return fmt.Errorf("benchmarks not sorted by (pkg, name)")
		}
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
	return nil
}

// less orders results by (pkg, name), the order snapshots are kept in.
func less(a, b Result) bool {
	if a.Pkg != b.Pkg {
		return a.Pkg < b.Pkg
	}
	return a.Name < b.Name
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
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		// An absent B/op or allocs/op column parses as 0.
		bop, _ := strconv.ParseInt(m[4], 10, 64)
		allocs, _ := strconv.ParseInt(m[5], 10, 64)
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

// runSuite runs the curated suite in the module at dir, skipping a suite
// package dir lacks (one the change adds). With -trimpath, identical code
// builds identical test binaries in either tree, so where a tree sits
// cannot shift the code layout of its side.
func runSuite(ctx context.Context, dir, benchtime string, verbose bool) (*File, error) {
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
		if _, err := os.Stat(filepath.Join(dir, strings.TrimPrefix(e.pkg, "sentinel"))); err != nil {
			continue
		}
		pattern := "^(" + strings.Join(e.benches, "|") + ")$"
		args := []string{"test", "-trimpath", "-run", "^$", "-bench", pattern,
			"-benchmem", "-benchtime", benchtime, e.pkg}
		if verbose {
			fmt.Fprintf(os.Stderr, "benchgate: (in %s) go %s\n", dir, strings.Join(args, " "))
		}
		cmd := exec.CommandContext(ctx, "go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s in %s: %v\n%s", e.pkg, dir, err, out)
		}
		f.Benchmarks = append(f.Benchmarks, ParseBenchOutput(e.pkg, out)...)
	}
	return f, nil
}

// mergeMedians folds several runs of one tree into one File that holds,
// per benchmark, the median ns/op with its run's iteration count and the
// median B/op and allocs/op (the upper middle for an even count), so one
// run slowed by a load spike cannot move the gate.
func mergeMedians(runs []*File) *File {
	var all []Result
	for _, f := range runs {
		all = append(all, f.Benchmarks...)
	}
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	merged := *runs[0]
	merged.Benchmarks = nil
	for i, j := 0, 0; i < len(all); i = j {
		for j = i; j < len(all) && !less(all[i], all[j]); j++ {
		}
		rs := all[i:j]
		mid := func(key func(Result) float64) Result {
			sort.Slice(rs, func(a, b int) bool { return key(rs[a]) < key(rs[b]) })
			return rs[len(rs)/2]
		}
		m := mid(func(r Result) float64 { return r.NsOp })
		m.BOp = mid(func(r Result) float64 { return float64(r.BOp) }).BOp
		m.AllocsOp = mid(func(r Result) float64 { return float64(r.AllocsOp) }).AllocsOp
		merged.Benchmarks = append(merged.Benchmarks, m)
	}
	return &merged
}

// git runs git in dir and returns its trimmed standard output.
func git(dir string, args ...string) (string, error) {
	var stderr strings.Builder
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stderr = dir, &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// parentCommit names the commit the working tree at dir is gated against:
// HEAD while the tree has uncommitted changes, HEAD's first parent once it
// is clean.
func parentCommit(dir string) (string, error) {
	status, err := git(dir, "status", "--porcelain")
	if err != nil {
		return "", err
	}
	rev := "HEAD^1"
	if status != "" {
		rev = "HEAD"
	}
	sha, err := git(dir, "rev-parse", "--verify", "--quiet", rev+"^{commit}")
	if err != nil {
		return "", fmt.Errorf("no commit %s to gate against (a shallow clone needs depth 2 or more): %v", rev, err)
	}
	return sha, nil
}

// gate measures the enclosing working tree against its parent commit and
// returns the regressions; with out set it also records the change side.
func gate(ctx context.Context, out, benchtime string, verbose bool) ([]Regression, error) {
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	rev, err := parentCommit(root)
	if err != nil {
		return nil, err
	}
	tree, err := os.MkdirTemp("", "benchgate-parent-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tree)
	if _, err := git(root, "worktree", "add", "--detach", tree, rev); err != nil {
		return nil, err
	}
	defer func() {
		if _, err := git(root, "worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "benchgate: %d interleaved pairs against parent %.12s\n", pairs, rev)
	runs := map[string][]*File{}
	for i := 0; i < pairs; i++ {
		// Even pairs run the parent first, odd pairs the change.
		for _, dir := range []string{tree, root, tree}[i%2 : i%2+2] {
			f, err := runSuite(ctx, dir, benchtime, verbose)
			if err != nil {
				return nil, err
			}
			runs[dir] = append(runs[dir], f)
		}
	}
	parent, change := mergeMedians(runs[tree]), mergeMedians(runs[root])
	if err := Validate(change); err != nil {
		return nil, fmt.Errorf("change side: %v", err)
	}
	if out != "" {
		data, err := json.MarshalIndent(change, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("writing %s: %v", out, err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %s (%d benchmarks)\n", out, len(change.Benchmarks))
	}
	summarize(parent, change)
	return Compare(parent, change), nil
}

// summarize prints a per-benchmark comparison table to stderr.
func summarize(old, new *File) {
	oldBy := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Pkg+"."+r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "%-28s %14s %14s %8s %12s\n",
		"benchmark", "parent ns/op", "change ns/op", "ratio", "allocs/op")
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
	out := flag.String("out", "", "write the change side's medians to this BENCH_*.json record")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime per benchmark")
	verbose := flag.Bool("v", false, "log the go test invocations")
	flag.Parse()

	// Catching the signals lets an interrupted run still remove the
	// parent's worktree; the go test children are stopped through ctx.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	regs, err := gate(ctx, *out, *benchtime, *verbose)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) against the parent:\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: no regressions against the parent\n")
}
