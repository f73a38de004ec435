package ilp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// term is one non-zero coefficient in one row, in float64: the form the
// reference solver reads.
type term struct {
	Row  int
	Coef float64
}

// expand writes p's spans out as one float term per row, in ascending
// row order, and its bounds as floats.
func expand(p *Problem) (bound []float64, cols [][]term) {
	bound = make([]float64, len(p.Bound))
	for r, b := range p.Bound {
		bound[r] = float64(b)
	}
	cols = make([][]term, len(p.Cols))
	for i, col := range p.Cols {
		for _, sp := range col {
			for r := sp.Lo; r <= sp.Hi; r++ {
				cols[i] = append(cols[i], term{Row: r, Coef: float64(sp.Coef)})
			}
		}
	}
	return bound, cols
}

// refSolve is the reference solver: the same branch and bound as Solve
// over float64 usage with a 1e-9 tolerance, one term per row, and a
// feasibility test that scans a variable's terms in row order before a
// separate pass takes them. Solve must reproduce it node for node.
func refSolve(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 200_000
	}
	n := len(p.Benefit)
	bound, cols := expand(p)
	s := &refSolver{
		benefit:  p.Benefit,
		bound:    bound,
		cols:     cols,
		maxNodes: maxNodes,
		usage:    make([]float64, len(bound)),
		cur:      make([]bool, n),
	}
	s.order = make([]int, n)
	density := make([]float64, n)
	for i := range s.order {
		s.order[i] = i
		var w float64
		for _, t := range cols[i] {
			w += t.Coef
		}
		if w <= 0 {
			density[i] = p.Benefit[i] * 1e18
		} else {
			density[i] = p.Benefit[i] / w
		}
	}
	sort.SliceStable(s.order, func(a, b int) bool { return density[s.order[a]] > density[s.order[b]] })
	s.suffix = make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		b := p.Benefit[s.order[k]]
		if b < 0 {
			b = 0
		}
		s.suffix[k] = s.suffix[k+1] + b
	}
	s.best = make([]bool, n)
	var greedyVal float64
	for _, vi := range s.order {
		if p.Benefit[vi] <= 0 || !s.fits(vi) {
			continue
		}
		s.take(vi)
		s.best[vi] = true
		greedyVal += p.Benefit[vi]
	}
	s.bestVal = greedyVal
	for i := range s.usage {
		s.usage[i] = 0
	}
	optimal := s.dfs(0, 0)
	return Result{X: s.best, Value: s.bestVal, Optimal: optimal, Nodes: s.nodes}
}

type refSolver struct {
	benefit  []float64
	bound    []float64
	cols     [][]term
	order    []int
	suffix   []float64
	usage    []float64
	cur      []bool
	best     []bool
	bestVal  float64
	nodes    int
	maxNodes int
}

func (s *refSolver) fits(vi int) bool {
	for _, t := range s.cols[vi] {
		if s.usage[t.Row]+t.Coef > s.bound[t.Row]+1e-9 {
			return false
		}
	}
	return true
}

func (s *refSolver) take(vi int) {
	for _, t := range s.cols[vi] {
		s.usage[t.Row] += t.Coef
	}
}

func (s *refSolver) drop(vi int) {
	for _, t := range s.cols[vi] {
		s.usage[t.Row] -= t.Coef
	}
}

func (s *refSolver) dfs(k int, value float64) bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		return false
	}
	if value > s.bestVal {
		s.bestVal = value
		copy(s.best, s.cur)
	}
	if k == len(s.order) {
		return true
	}
	if value+s.suffix[k] <= s.bestVal {
		return true
	}
	vi := s.order[k]
	complete := true
	if s.benefit[vi] > 0 && s.fits(vi) {
		s.take(vi)
		s.cur[vi] = true
		if !s.dfs(k+1, value+s.benefit[vi]) {
			complete = false
		}
		s.cur[vi] = false
		s.drop(vi)
	}
	if !s.dfs(k+1, value) {
		complete = false
	}
	return complete
}

// spanInstance draws an AutoTM-shaped instance: each variable occupies a
// contiguous run of capacity rows (a tensor's lifetime), so most failed
// feasibility tests fail on the same crowded row.
func spanInstance(rng *rand.Rand, n, rows int) *Problem {
	p := &Problem{Benefit: make([]float64, n), Bound: make([]int64, rows), Cols: make([][]Span, n)}
	for r := range p.Bound {
		p.Bound[r] = int64(50 + rng.Intn(100))
	}
	for i := range p.Benefit {
		p.Benefit[i] = float64(rng.Intn(60) - 5)
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo)
		w := int64(1 + rng.Intn(30))
		p.Cols[i] = []Span{{Lo: lo, Hi: hi, Coef: w}}
	}
	return p
}

// autotmInstance draws an instance shaped like AutoTM's placement ILP
// (internal/baseline): rows capacity rows of one bound, then one
// exclusivity row of bound 1 per tensor with an idle gap. Tensor i's
// fast variable 2i covers its lifetime span. When the gap spans more than
// two rows, its offload variable 2i+1 covers the lifetime minus the gap
// (two spans, worth a little less than staying fast), and both variables
// carry the exclusivity row.
func autotmInstance(rng *rand.Rand, tensors, rows int, capacity int64) *Problem {
	p := &Problem{Benefit: make([]float64, 2*tensors), Bound: make([]int64, rows), Cols: make([][]Span, 2*tensors)}
	for r := range p.Bound {
		p.Bound[r] = capacity
	}
	for i := 0; i < tensors; i++ {
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo)
		size := int64(1 + rng.Intn(40))
		benefit := float64(size) * float64(1+rng.Intn(20)) / 16
		p.Benefit[2*i] = benefit
		p.Cols[2*i] = []Span{{Lo: lo, Hi: hi, Coef: size}}
		if hi-lo < 4 {
			continue
		}
		end := lo + rng.Intn(hi-lo-3)
		resume := end + 3 + rng.Intn(hi-end-2)
		excl := len(p.Bound)
		p.Bound = append(p.Bound, 1)
		p.Benefit[2*i+1] = benefit - float64(size)*float64(rng.Intn(4))/8
		p.Cols[2*i] = append(p.Cols[2*i], Span{Lo: excl, Hi: excl, Coef: 1})
		p.Cols[2*i+1] = []Span{{Lo: lo, Hi: end, Coef: size}, {Lo: resume, Hi: hi, Coef: size}, {Lo: excl, Hi: excl, Coef: 1}}
	}
	return p
}

// TestSolveMatchesReference runs Solve and the reference solver on the
// package's random instances, under budgets that both finish and cut the
// search, and requires the same assignment, objective, node count and
// optimality verdict: neither integer slack, the fused take-and-rollback
// walk, the hint's evaluation order nor the radix branch order may
// change the search. Instances named -proves and -cut must keep their
// verdict, so both kinds stay covered.
func TestSolveMatchesReference(t *testing.T) {
	type instance struct {
		name     string
		p        *Problem
		maxNodes int
	}
	var cases []instance
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		cases = append(cases, instance{"brute-force", randomSmall(rng), 0})
	}
	p, _ := randomKnapsack(rand.New(rand.NewSource(5)), 200, 500, 100, 50)
	cases = append(cases, instance{"anytime", p, 500})
	rng = rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p, _ := randomKnapsack(rng, 30, 100, 50, 30)
		cases = append(cases, instance{"greedy", p, 100_000})
	}
	p, _ = randomKnapsack(rand.New(rand.NewSource(11)), 120, 400, 100, 50)
	cases = append(cases, instance{"allocs-1k", p, 1_000}, instance{"allocs-100k", p, 100_000})
	rng = rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 24 // small enough to prove optimal
		if trial%2 == 1 {
			n = 80 // cut by the budget
		}
		cases = append(cases, instance{"span", spanInstance(rng, n, 24), 50_000})
	}
	// AutoTM-shaped: a lifetime span, one gap and an exclusivity row.
	rng = rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		if trial%2 == 0 {
			cases = append(cases, instance{"autotm-proves", autotmInstance(rng, 12, 18, 60), 50_000})
		} else {
			cases = append(cases, instance{"autotm-cut", autotmInstance(rng, 60, 32, 120), 50_000})
		}
	}

	for i, c := range cases {
		got, want := Solve(c.p, c.maxNodes), refSolve(c.p, c.maxNodes)
		if got.Value != want.Value || got.Nodes != want.Nodes || got.Optimal != want.Optimal {
			t.Fatalf("case %d (%s): value %v nodes %d optimal %v; reference %v %d %v",
				i, c.name, got.Value, got.Nodes, got.Optimal, want.Value, want.Nodes, want.Optimal)
		}
		if proves, cut := strings.HasSuffix(c.name, "-proves"), strings.HasSuffix(c.name, "-cut"); proves && !want.Optimal || cut && want.Optimal {
			t.Fatalf("case %d (%s): optimal %v after %d nodes; the instance no longer covers its case", i, c.name, want.Optimal, want.Nodes)
		}
		for vi := range got.X {
			if got.X[vi] != want.X[vi] {
				t.Fatalf("case %d (%s): x[%d] = %v, reference %v", i, c.name, vi, got.X[vi], want.X[vi])
			}
		}
	}
}

// TestBranchOrderMatchesStableSort checks the branch order against a
// stable sort on density, descending, over random densities with many
// ties, both zeros, both infinities and magnitudes across the float64
// exponent range.
func TestBranchOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 1e-300, -1e300}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		keys := make([]densityKey, n)
		for i := range keys {
			keys[i].vi = int32(i)
			switch rng.Intn(4) {
			case 0:
				keys[i].density = special[rng.Intn(len(special))]
			case 1:
				keys[i].density = float64(rng.Intn(5) - 2)
			default:
				keys[i].density = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		want := slices.Clone(keys)
		sort.SliceStable(want, func(a, b int) bool { return want[a].density > want[b].density })
		slices.SortFunc(keys, byDensity)
		for k := range keys {
			if keys[k].vi != want[k].vi {
				t.Fatalf("trial %d: position %d holds variable %d (density %v), stable sort has %d (density %v)",
					trial, k, keys[k].vi, keys[k].density, want[k].vi, want[k].density)
			}
		}
	}
}
