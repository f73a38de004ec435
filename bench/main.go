// Command bench is the repository's benchmark. It times the simulator
// end to end on four workloads and, in a traced run, breaks that time
// down by layer. Build and run it through run.sh from the repository
// root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--json <file>]
//	bash bench/run.sh --workload all --seed <n>
//	bash bench/run.sh compare -a <dir> -b <dir>
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"time"

	"sentinel/internal/experiment"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// fullSize is the work of one segment in a real run. A segment takes
// about half a second on a 2-CPU box, except paper-sweep's, which is one
// whole sweep of about three seconds.
func fullSize() size {
	return size{sweepIDs: experiment.DefaultIDs(), rounds: 60, cells: 300, requests: 2000}
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 for a traced run: per-layer metrics and a Chrome trace")
	jsonOut := fs.String("json", "", "also write the full result, with sample counts and sim_digest, to this file")
	traceOut := fs.String("trace-out", "", "Chrome trace of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, names, *jsonOut)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, root: ".", size: fullSize()}
	rep, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.Seconds = *seconds
	if cfg.traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		}
		if err := rep.spans.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			return 1
		}
		rep.Checks = append(rep.Checks, "chrome trace written to "+path)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process so that its
// set-up time and peak memory are its own.
func runAll(args, names []string, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range names {
		// Later flags win, so the appended ones override "all" and the
		// shared -json path.
		child := append(append([]string{}, args...), "-workload", name)
		if jsonOut != "" {
			child = append(child, "-json", strings.TrimSuffix(jsonOut, ".json")+"-"+name+".json")
		}
		cmd := osexec.Command(exe, child...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full result of a run, as written by -json and read by
// compare.
type report struct {
	result
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     bool           `json:"trace"`
	Segments  int            `json:"segments"`
	SimDigest string         `json:"sim_digest"`
	Samples   map[string]int `json:"samples,omitempty"`
	Checks    []string       `json:"checks,omitempty"`
	Problems  []string       `json:"problems,omitempty"`
	SelfMS    []selfTime     `json:"self_ms,omitempty"`
	// HostSpeed is the yardstick's measure of the host's speed, by which
	// the run's times were scaled (see clock.go).
	HostSpeed float64 `json:"host_speed"`
	// WallOpsPerS is the run's ops per wall-clock second, unscaled: not a
	// metric, since it moves with the load other tenants put on the host.
	WallOpsPerS float64 `json:"wall_ops_per_s,omitempty"`

	defs     []metricDef
	spans    *spanLog
	measured map[string]float64 // the per-layer metrics the workload set
}

// execute runs one workload and assembles its report: the end-to-end
// metrics when untraced, the per-layer metrics when traced.
func execute(w workload, cfg config) (*report, error) {
	r := newRun(cfg)
	if err := w.run(r); err != nil {
		return nil, err
	}
	rep := &report{
		result: result{Attempted: r.attempted, Failed: r.failed,
			Metrics: map[string]metricValue{}},
		Workload: w.name, Seed: cfg.seed, Trace: cfg.traced, Segments: r.segments,
		SimDigest: r.digest, Samples: map[string]int{},
		Checks: r.checks, Problems: r.problems, SelfMS: r.spans.selfTimes(),
		spans: r.spans, measured: r.layer,
	}
	rep.Correct = r.failed == 0 && r.attempted > 0
	// Times and rates are reported at the yardstick's nominal host speed.
	rep.HostSpeed = hostSpeed()
	for i := range rep.SelfMS {
		rep.SelfMS[i].MS *= rep.HostSpeed
	}
	set := func(d metricDef, v float64, n int) {
		switch d.Unit {
		case "s", "ms", "us", "ns":
			v *= rep.HostSpeed
		case "1/s":
			v /= rep.HostSpeed
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if n > 0 {
			rep.Samples[d.Name] = n
		}
	}
	if cfg.traced {
		rep.defs = perLayer()
		for _, d := range rep.defs {
			set(d, r.layer[d.Name], 0)
		}
		return rep, nil
	}
	rep.defs = endToEnd
	values := map[string]struct {
		v float64
		n int
	}{
		"setup_s":        {median(r.setupS), len(r.setupS)},
		"ops_per_cpu_s":  {median(r.rates), len(r.rates)},
		"op_cpu_ms_p50":  {percentile(r.opMS, 50), len(r.opMS)},
		"op_cpu_ms_tail": {tail(r.opMS), len(r.opMS)},
		"peak_rss_mb":    {peakRSSMB(), 1},
	}
	for _, d := range rep.defs {
		set(d, values[d.Name].v, values[d.Name].n)
	}
	rep.WallOpsPerS = median(r.wallRates)
	return rep, nil
}

// print writes every metric as "name value unit", the checks, and the
// result line last.
func (rep *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d segments %d attempted %d failed %d\n",
		rep.Workload, rep.Seed, rep.Segments, rep.Attempted, rep.Failed)
	for _, d := range rep.defs {
		fmt.Fprintf(w, "%s %.6g %s", d.Name, rep.Metrics[d.Name].Value, d.Unit)
		if n, ok := rep.Samples[d.Name]; ok {
			fmt.Fprintf(w, " (n=%d)", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "host_speed %.4g of nominal (times and rates above are scaled to nominal)\n", rep.HostSpeed)
	if rep.WallOpsPerS > 0 {
		fmt.Fprintf(w, "wall-clock ops_per_s %.6g 1/s (unscaled, not a metric: moves with the host's load)\n", rep.WallOpsPerS)
	}
	for _, st := range rep.SelfMS {
		fmt.Fprintf(w, "self %s %.6g cpu ms (n=%d)\n", st.Name, st.MS, st.Count)
	}
	for _, c := range rep.Checks {
		fmt.Fprintln(w, c)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "problem:", p)
	}
	fmt.Fprintf(w, "sim_digest %s\n", rep.SimDigest)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
