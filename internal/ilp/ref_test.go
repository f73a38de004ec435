package ilp

import (
	"math/rand"
	"sort"
	"testing"
)

// refSolve is the reference solver: the same branch and bound as Solve,
// with a feasibility test that always scans a variable's terms in row
// order. Solve must reproduce it node for node.
func refSolve(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 200_000
	}
	n := len(p.Benefit)
	s := &refSolver{
		benefit:  p.Benefit,
		bound:    p.Bound,
		cols:     p.Cols,
		maxNodes: maxNodes,
		usage:    make([]float64, len(p.Bound)),
		cur:      make([]bool, n),
	}
	s.order = make([]int, n)
	density := make([]float64, n)
	for i := range s.order {
		s.order[i] = i
		var w float64
		for _, t := range p.Cols[i] {
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
	cols     [][]Term
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
	p := &Problem{Benefit: make([]float64, n), Bound: make([]float64, rows), Cols: make([][]Term, n)}
	for r := range p.Bound {
		p.Bound[r] = float64(50 + rng.Intn(100))
	}
	for i := range p.Benefit {
		p.Benefit[i] = float64(rng.Intn(60) - 5)
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo)
		w := float64(1 + rng.Intn(30))
		for r := lo; r <= hi; r++ {
			p.Cols[i] = append(p.Cols[i], Term{Row: r, Coef: w})
		}
	}
	return p
}

// TestSolveMatchesReference runs Solve and the reference solver on the
// package's random instances, under budgets that both finish and cut the
// search, and requires the same assignment, objective, node count and
// optimality verdict: the feasibility test's evaluation order must not
// change the search.
func TestSolveMatchesReference(t *testing.T) {
	type instance struct {
		name     string
		p        *Problem
		maxNodes int
	}
	var cases []instance
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		p := &Problem{Benefit: make([]float64, n), Cols: make([][]Term, n)}
		for i := range p.Benefit {
			p.Benefit[i] = float64(rng.Intn(40) - 5)
		}
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			p.Bound = append(p.Bound, float64(10+rng.Intn(40)))
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					p.Cols[i] = append(p.Cols[i], Term{Row: r, Coef: float64(1 + rng.Intn(20))})
				}
			}
		}
		cases = append(cases, instance{"brute-force", p, 0})
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

	for i, c := range cases {
		got, want := Solve(c.p, c.maxNodes), refSolve(c.p, c.maxNodes)
		if got.Value != want.Value || got.Nodes != want.Nodes || got.Optimal != want.Optimal {
			t.Fatalf("case %d (%s): value %v nodes %d optimal %v; reference %v %d %v",
				i, c.name, got.Value, got.Nodes, got.Optimal, want.Value, want.Nodes, want.Optimal)
		}
		for vi := range got.X {
			if got.X[vi] != want.X[vi] {
				t.Fatalf("case %d (%s): x[%d] = %v, reference %v", i, c.name, vi, got.X[vi], want.X[vi])
			}
		}
	}
}
