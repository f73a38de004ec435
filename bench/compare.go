package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is BENCHMARK.json's list of workloads and metrics.
type spec struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadReports reads every -json result in dir.
func loadReports(dir string) ([]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var reps []report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("no results in %s", dir)
	}
	return reps, nil
}

// compareMain compares two sets of untraced runs, a baseline (-a) and a
// change (-b), metric by metric against BENCHMARK.json's bounds. It
// exits 1 when a metric regressed beyond its bound or when the two sides
// simulated different outputs from the same seed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	dirA := fs.String("a", "", "directory of -json results of the baseline")
	dirB := fs.String("b", "", "directory of -json results of the change")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirA == "" || *dirB == "" {
		fmt.Fprintln(os.Stderr, "bench compare: need -a and -b")
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	a, err := loadReports(*dirA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	b, err := loadReports(*dirB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	return compare(w, s, a, b)
}

// compare prints, for every workload and end-to-end metric, each side's
// median and quartiles and a verdict:
//
//   - ok: both spreads are within the bound and the change's median is
//     no worse than the baseline's by more than the bound;
//   - REGRESSED: the spreads are within the bound and the change's
//     median is worse by more than it;
//   - unresolved: a spread is wider than the bound, so the runs cannot
//     tell, unless every run of the change beats every run of the
//     baseline (better).
func compare(w io.Writer, s *spec, a, b []report) int {
	status := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (runs)\tB median [q1, q3] (runs)\tchange\tbound\tverdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change := judge(m, va, vb)
			if verdict == "REGRESSED" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%g%%\t%s\n",
				wl.Name, m.Name, describe(va), describe(vb), 100*change, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	for _, msg := range digestDiffs(a, b) {
		fmt.Fprintln(w, msg)
		status = 1
	}
	return status
}

// values collects a metric over the untraced runs of one workload.
func values(reps []report, workload, metric string) []float64 {
	var vs []float64
	for _, r := range reps {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// judge compares the change's runs (vb) with the baseline's (va). change
// is the relative move of the median, signed so that positive is worse.
func judge(m metricDef, va, vb []float64) (verdict string, change float64) {
	ma, mb := median(va), median(vb)
	change = (mb - ma) / ma
	if m.Better == "higher" {
		change = (ma - mb) / ma
	}
	if spread(va) > m.Bound || spread(vb) > m.Bound {
		if allBetter(m, va, vb) {
			return "better", change
		}
		return "unresolved", change
	}
	if change > m.Bound {
		return "REGRESSED", change
	}
	return "ok", change
}

// allBetter reports whether every run of vb beats every run of va.
func allBetter(m metricDef, va, vb []float64) bool {
	sa := append([]float64(nil), va...)
	sb := append([]float64(nil), vb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func describe(vs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(vs), percentile(vs, 25), percentile(vs, 75), len(vs))
}

// digestDiffs reports every workload and seed whose runs simulated
// different outputs, on either side or across the two.
func digestDiffs(a, b []report) []string {
	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]map[string]bool{}
	var keys []key
	for _, r := range append(append([]report{}, a...), b...) {
		k := key{r.Workload, r.Seed}
		if digests[k] == nil {
			digests[k] = map[string]bool{}
			keys = append(keys, k)
		}
		digests[k][r.SimDigest] = true
	}
	var out []string
	for _, k := range keys {
		if n := len(digests[k]); n > 1 {
			var ds []string
			for d := range digests[k] {
				ds = append(ds, d)
			}
			sort.Strings(ds)
			out = append(out, fmt.Sprintf("sim_digest differs: %s seed %d simulated %d different outputs (%s)",
				k.workload, k.seed, n, strings.Join(ds, ", ")))
		}
	}
	return out
}
