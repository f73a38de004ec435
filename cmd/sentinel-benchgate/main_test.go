package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFile() *File {
	f := &File{
		Schema: Schema, GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
		CPU: "test-cpu", NumCPU: 8, Benchtime: "1s",
	}
	for _, e := range suite {
		for _, b := range e.benches {
			f.Benchmarks = append(f.Benchmarks, Result{
				Name: b, Pkg: e.pkg, Iters: 100, NsOp: 100, BOp: 64, AllocsOp: 2,
			})
		}
	}
	sortBenchmarks(f)
	return f
}

func sortBenchmarks(f *File) {
	for i := range f.Benchmarks {
		for j := i + 1; j < len(f.Benchmarks); j++ {
			a, b := f.Benchmarks[i], f.Benchmarks[j]
			if b.Pkg < a.Pkg || (b.Pkg == a.Pkg && b.Name < a.Name) {
				f.Benchmarks[i], f.Benchmarks[j] = b, a
			}
		}
	}
}

func TestCompareNoRegression(t *testing.T) {
	old, cur := sampleFile(), sampleFile()
	// Improvements and small jitter must pass.
	for i := range cur.Benchmarks {
		cur.Benchmarks[i].NsOp *= 0.5
	}
	if regs := Compare(old, cur); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

// TestCompareRegressedBaseline is the gate's contract: fed a change that is
// artificially slower than its parent, Compare must flag it (and main
// exits non-zero on any flagged regression).
func TestCompareRegressedBaseline(t *testing.T) {
	old, cur := sampleFile(), sampleFile()
	cur.Benchmarks[0].NsOp = old.Benchmarks[0].NsOp * 10
	regs := Compare(old, cur)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Metric != "ns/op" || regs[0].Name != cur.Benchmarks[0].Name {
		t.Fatalf("wrong regression: %+v", regs[0])
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old, cur := sampleFile(), sampleFile()
	// allocs/op is deterministic: +2 allocs over a 2-alloc baseline must
	// trip even though the ratio threshold alone would allow noise.
	cur.Benchmarks[3].AllocsOp = old.Benchmarks[3].AllocsOp + 2
	regs := Compare(old, cur)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
	// +1 alloc sits inside the absolute slack.
	cur.Benchmarks[3].AllocsOp = old.Benchmarks[3].AllocsOp + 1
	if regs := Compare(old, cur); len(regs) != 0 {
		t.Fatalf("slack not honored: %v", regs)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old, cur := sampleFile(), sampleFile()
	cur.Benchmarks = cur.Benchmarks[1:]
	regs := Compare(old, cur)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("want one missing-benchmark failure, got %v", regs)
	}
}

func TestValidate(t *testing.T) {
	f := sampleFile()
	if err := Validate(f); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	bad := sampleFile()
	bad.Schema = "sentinel-bench/v0"
	if err := Validate(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema file accepted: %v", err)
	}
	bad = sampleFile()
	bad.Benchmarks = bad.Benchmarks[1:]
	if err := Validate(bad); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete suite accepted: %v", err)
	}
	bad = sampleFile()
	bad.Benchmarks[0].NsOp = 0
	if err := Validate(bad); err == nil {
		t.Fatal("zero ns/op accepted")
	}
	bad = sampleFile()
	bad.Benchmarks[0], bad.Benchmarks[1] = bad.Benchmarks[1], bad.Benchmarks[0]
	if err := Validate(bad); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("unsorted file accepted: %v", err)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := []byte(`goos: linux
goarch: amd64
pkg: sentinel/internal/kernel
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTouchProfiled-8   	 8426408	       137.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrate           	  721843	      1662 ns/op	      32 B/op	       1 allocs/op
BenchmarkBig-16            	       2	 108121642 ns/op	20528248 B/op	  337115 allocs/op
PASS
ok  	sentinel/internal/kernel	2.5s
`)
	rs := ParseBenchOutput("sentinel/internal/kernel", out)
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(rs), rs)
	}
	if rs[0].Name != "BenchmarkTouchProfiled" || rs[0].Iters != 8426408 || rs[0].NsOp != 137.7 {
		t.Fatalf("bad first result: %+v", rs[0])
	}
	if rs[1].Name != "BenchmarkMigrate" || rs[1].BOp != 32 || rs[1].AllocsOp != 1 {
		t.Fatalf("bad second result: %+v", rs[1])
	}
	if rs[2].AllocsOp != 337115 || rs[2].Pkg != "sentinel/internal/kernel" {
		t.Fatalf("bad third result: %+v", rs[2])
	}
}

// sides builds a parent and a change File the way gate does: pairs runs
// of each side, merged into medians, with a load drift that slows every
// benchmark by drift[i] in pair i on both sides alike.
func sides(drift []float64, slow func(r *Result)) (parent, change *File) {
	var ps, cs []*File
	for _, d := range drift {
		p, c := sampleFile(), sampleFile()
		for i := range p.Benchmarks {
			p.Benchmarks[i].NsOp *= d
			c.Benchmarks[i].NsOp *= d
			slow(&c.Benchmarks[i])
		}
		ps, cs = append(ps, p), append(cs, c)
	}
	return mergeMedians(ps), mergeMedians(cs)
}

func TestCompareSameHourParent(t *testing.T) {
	drift := []float64{1, 2.5, 1.8, 3, 1.2}
	parent, change := sides(drift, func(*Result) {})
	if regs := Compare(parent, change); len(regs) != 0 {
		t.Fatalf("drift shared by both sides tripped the gate: %v", regs)
	}

	target := change.Benchmarks[4].Name
	parent, change = sides(drift, func(r *Result) {
		if r.Name == target {
			r.NsOp *= 10
		}
	})
	regs := Compare(parent, change)
	if len(regs) != 1 || regs[0].Name != target || regs[0].Metric != "ns/op" {
		t.Fatalf("want one ns/op regression on %s, got %v", target, regs)
	}
	if ratio := regs[0].New / regs[0].Old; ratio < 9 || ratio > 11 {
		t.Fatalf("ratio of medians %.2f, want 10", ratio)
	}

	// A benchmark the change lacks is a regression; one the parent lacks
	// is fresh coverage.
	parent, change = sides(drift, func(*Result) {})
	if regs := Compare(parent, &File{Benchmarks: change.Benchmarks[1:]}); len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("want one missing-benchmark regression, got %v", regs)
	}
	parent.Benchmarks = parent.Benchmarks[1:]
	if regs := Compare(parent, change); len(regs) != 0 {
		t.Fatalf("new benchmark treated as a regression: %v", regs)
	}
}

func TestMergeMedians(t *testing.T) {
	run := func(rs ...Result) *File {
		f := sampleFile()
		f.Benchmarks = rs
		return f
	}
	a := func(ns float64, iters, bop, allocs int64) Result {
		return Result{Name: "BenchmarkA", Pkg: "sentinel", Iters: iters, NsOp: ns, BOp: bop, AllocsOp: allocs}
	}
	b := Result{Name: "BenchmarkB", Pkg: "sentinel", Iters: 7, NsOp: 5, BOp: 1, AllocsOp: 1}
	early := Result{Name: "BenchmarkZ", Pkg: "sentinel/internal/alloc", Iters: 1, NsOp: 9}
	m := mergeMedians([]*File{
		run(a(300, 10, 64, 3), b),
		run(early, a(100, 30, 80, 2)),
		run(a(200, 20, 96, 2), b),
	})
	if m.Schema != Schema || m.GoVersion == "" {
		t.Fatalf("fingerprint lost: %+v", m)
	}
	want := []Result{
		{Name: "BenchmarkA", Pkg: "sentinel", Iters: 20, NsOp: 200, BOp: 80, AllocsOp: 2},
		b,
		early,
	}
	if len(m.Benchmarks) != len(want) {
		t.Fatalf("merged %d benchmarks, want %d: %+v", len(m.Benchmarks), len(want), m.Benchmarks)
	}
	for i := range want {
		if m.Benchmarks[i] != want[i] {
			t.Errorf("benchmark %d = %+v, want %+v", i, m.Benchmarks[i], want[i])
		}
	}
}

// TestParentCommit checks which commit a tree is gated against: HEAD while
// the tree is dirty, HEAD^1 once it is clean, and an error naming the
// shallow clone when HEAD^1 is missing.
func TestParentCommit(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	run := func(args ...string) string {
		t.Helper()
		args = append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com",
			"-c", "commit.gpgsign=false"}, args...)
		out, err := git(dir, args...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	commit := func(content string) string {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		run("add", "f.txt")
		run("commit", "-q", "-m", content)
		return run("rev-parse", "HEAD")
	}
	run("init", "-q")
	first := commit("one")
	if _, err := parentCommit(dir); err == nil || !strings.Contains(err.Error(), "shallow clone") {
		t.Fatalf("clean root commit: want a shallow-clone error, got %v", err)
	}
	second := commit("two")
	if got, err := parentCommit(dir); err != nil || got != first {
		t.Fatalf("clean tree: got %q, %v; want HEAD^1 %s", got, err, first)
	}
	if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte("dirty"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := parentCommit(dir); err != nil || got != second {
		t.Fatalf("dirty tree: got %q, %v; want HEAD %s", got, err, second)
	}
}

// TestCommittedSnapshots keeps every BENCH_*.json record at the repository
// root readable: schema sentinel-bench/v1 and no negative allocation
// metrics.
func TestCommittedSnapshots(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json records found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if f.Schema != Schema || len(f.Benchmarks) == 0 {
			t.Errorf("%s: schema %q with %d benchmarks, want %q and at least one", p, f.Schema, len(f.Benchmarks), Schema)
		}
		for _, r := range f.Benchmarks {
			if r.BOp < 0 || r.AllocsOp < 0 {
				t.Errorf("%s: %s (%s) has negative allocation metrics", p, r.Name, r.Pkg)
			}
		}
	}
}
