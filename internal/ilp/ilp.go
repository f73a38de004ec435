// Package ilp is a small 0/1 integer-linear-program solver used by the
// AutoTM baseline, which formulates tensor placement as an ILP [7]. It
// maximizes a linear benefit over binary variables subject to ≤
// constraints (multi-dimensional knapsack), via depth-first branch and
// bound with a greedy incumbent and an optimistic remaining-benefit bound.
// The solver is anytime: given a node budget it returns the best incumbent
// found and whether it proved optimality.
//
// The constraint matrix is stored in column form: each variable lists its
// non-zero coefficients as (row, coefficient) terms, so the search's
// feasibility test and usage updates walk a slice per branch and allocate
// nothing. Most feasibility tests fail, and they tend to fail on the same
// crowded row as the variable's previous failure, so the test checks that
// remembered term first. A conjunction's value does not depend on the
// order its terms are checked in, so the hint changes no node of the
// search, only how soon an infeasible branch is rejected.
package ilp

import "sort"

// Term is one non-zero constraint coefficient of a variable: Coef in row
// Row. Coefficients must be non-negative (capacity-style constraints).
type Term struct {
	Row  int
	Coef float64
}

// Problem is: maximize Σ Benefit[i]·x[i] subject to, for every row r,
// Σ_i Coef(r, i)·x[i] ≤ Bound[r], x binary. Cols has one entry per
// variable: Cols[i] lists variable i's non-zeros in ascending row order.
// Negative benefits are allowed (the solver leaves those variables off).
type Problem struct {
	Benefit []float64
	Bound   []float64
	Cols    [][]Term
}

// Result is the solver outcome.
type Result struct {
	X       []bool
	Value   float64
	Optimal bool
	Nodes   int
}

// Solve runs branch and bound with the given node budget (≤0 means a
// default of 200k nodes).
func Solve(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 200_000
	}
	n := len(p.Benefit)
	s := &solver{
		benefit:  p.Benefit,
		bound:    p.Bound,
		cols:     p.Cols,
		maxNodes: maxNodes,
		usage:    make([]float64, len(p.Bound)),
		cur:      make([]bool, n),
		hint:     make([]int32, n),
	}
	// Branch order: benefit-per-weight density, descending; pure-benefit
	// variables (no weight) first.
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

	// suffixBenefit[k] = sum of positive benefits of order[k:]; the
	// optimistic bound for pruning.
	s.suffix = make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		b := p.Benefit[s.order[k]]
		if b < 0 {
			b = 0
		}
		s.suffix[k] = s.suffix[k+1] + b
	}

	// Greedy incumbent.
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
	// Reset usage for the search.
	for i := range s.usage {
		s.usage[i] = 0
	}

	optimal := s.dfs(0, 0)
	return Result{X: s.best, Value: s.bestVal, Optimal: optimal, Nodes: s.nodes}
}

type solver struct {
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
	// hint[vi] is the position in cols[vi] of the term that last failed
	// vi's feasibility test.
	hint []int32
}

// fits reports whether setting vi keeps every row within its bound. It
// tests the term that failed last time first, and records where a full
// scan fails.
//
//perf:hot
func (s *solver) fits(vi int) bool {
	col := s.cols[vi]
	if len(col) == 0 {
		return true
	}
	if t := col[s.hint[vi]]; s.usage[t.Row]+t.Coef > s.bound[t.Row]+1e-9 {
		return false
	}
	for i, t := range col {
		if s.usage[t.Row]+t.Coef > s.bound[t.Row]+1e-9 {
			s.hint[vi] = int32(i)
			return false
		}
	}
	return true
}

// take adds vi's coefficients to the row usage.
//
//perf:hot
func (s *solver) take(vi int) {
	for _, t := range s.cols[vi] {
		s.usage[t.Row] += t.Coef
	}
}

// drop undoes take.
//
//perf:hot
func (s *solver) drop(vi int) {
	for _, t := range s.cols[vi] {
		s.usage[t.Row] -= t.Coef
	}
}

// dfs returns true if the subtree was fully explored (no budget cut).
//
//perf:hot
func (s *solver) dfs(k int, value float64) bool {
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
		return true // cannot beat the incumbent
	}
	vi := s.order[k]
	complete := true
	// Branch: include first (density order makes inclusion promising).
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
