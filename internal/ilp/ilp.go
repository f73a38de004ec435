// Package ilp is a small 0/1 integer-linear-program solver used by the
// AutoTM baseline, which formulates tensor placement as an ILP [7]. It
// maximizes a linear benefit over binary variables subject to ≤
// constraints (multi-dimensional knapsack), via depth-first branch and
// bound with a greedy incumbent and an optimistic remaining-benefit bound.
// The solver is anytime: given a node budget it returns the best incumbent
// found and whether it proved optimality.
//
// Constraint coefficients and bounds are integers (byte sizes and
// counts), so feasibility is exact. The matrix is stored in column form:
// each variable lists its non-zeros as ascending row spans of one
// coefficient, which is how a tensor's lifetime occupies capacity rows.
// Solve lays the variables out in branch order in one flat table and
// tracks each row's slack, so one walk over a variable's spans both tests
// and applies an inclusion, rolling back on the first row that would
// overflow. Most feasibility tests fail, and they tend to fail on the
// same crowded row as the variable's previous failure, so that remembered
// row is checked first. A conjunction's value does not depend on the
// order its rows are checked in, so the hint changes no node of the
// search, only how soon an infeasible branch is rejected.
package ilp

import (
	"cmp"
	"slices"
)

// Span is a run of equal non-zero constraint coefficients of a variable:
// Coef in every row from Lo to Hi inclusive, Lo ≤ Hi. Coefficients must
// be non-negative (capacity-style constraints).
type Span struct {
	Lo, Hi int
	Coef   int64
}

// Problem is: maximize Σ Benefit[i]·x[i] subject to, for every row r,
// Σ_i Coef(r, i)·x[i] ≤ Bound[r], x binary. Cols has one entry per
// variable: Cols[i] lists variable i's non-zeros as spans in ascending,
// non-overlapping row order. Negative benefits are allowed (the solver
// leaves those variables off).
type Problem struct {
	Benefit []float64
	Bound   []int64
	Cols    [][]Span
}

// Result is the solver outcome.
type Result struct {
	X       []bool
	Value   float64
	Optimal bool
	Nodes   int
}

// entry is one variable in branch order: its benefit, its spans
// (spans[lo:hi]), the row that last failed its feasibility test with the
// coefficient it has there, and its index in the Problem.
type entry struct {
	benefit  float64
	lo, hi   int32
	hint     int32
	vi       int32
	hintCoef int64
}

// densityKey orders variables for branching.
type densityKey struct {
	density float64
	vi      int32
}

// byDensity sorts descending by density, ties in ascending variable
// index: the order a stable sort on density alone gives.
func byDensity(a, b densityKey) int {
	switch {
	case a.density > b.density:
		return -1
	case a.density < b.density:
		return 1
	}
	return cmp.Compare(a.vi, b.vi)
}

// Solve runs branch and bound with the given node budget (≤0 means a
// default of 200k nodes).
func Solve(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 200_000
	}
	n := len(p.Benefit)
	// Branch order: benefit-per-weight density, descending; pure-benefit
	// variables (no weight) first.
	keys := make([]densityKey, n)
	nspans := 0
	for i := range keys {
		var w int64
		for _, sp := range p.Cols[i] {
			w += sp.Coef * int64(sp.Hi-sp.Lo+1)
		}
		nspans += len(p.Cols[i])
		keys[i] = densityKey{density: p.Benefit[i] * 1e18, vi: int32(i)}
		if w > 0 {
			keys[i].density = p.Benefit[i] / float64(w)
		}
	}
	slices.SortFunc(keys, byDensity)

	s := &solver{
		vars:     make([]entry, n),
		spans:    make([]Span, 0, nspans),
		slack:    slices.Clone(p.Bound),
		suffix:   make([]float64, n+1),
		cur:      make([]bool, n),
		best:     make([]bool, n),
		maxNodes: maxNodes,
	}
	for k, key := range keys {
		col := p.Cols[key.vi]
		e := entry{benefit: p.Benefit[key.vi], lo: int32(len(s.spans)), vi: key.vi}
		s.spans = append(s.spans, col...)
		e.hi = int32(len(s.spans))
		if len(col) > 0 {
			e.hint, e.hintCoef = int32(col[0].Lo), col[0].Coef
		}
		s.vars[k] = e
	}

	// suffix[k] = sum of positive benefits of vars[k:]; the optimistic
	// bound for pruning.
	for k := n - 1; k >= 0; k-- {
		s.suffix[k] = s.suffix[k+1] + max(s.vars[k].benefit, 0)
	}

	// Greedy incumbent.
	for k := range s.vars {
		if e := &s.vars[k]; e.benefit > 0 && s.take(e) {
			s.best[k] = true
			s.bestVal += e.benefit
		}
	}
	// Reset the slack for the search.
	copy(s.slack, p.Bound)

	optimal := s.dfs(0, 0)
	x := make([]bool, n)
	for k, e := range s.vars {
		x[e.vi] = s.best[k]
	}
	return Result{X: x, Value: s.bestVal, Optimal: optimal, Nodes: s.nodes}
}

type solver struct {
	vars  []entry
	spans []Span
	// slack[r] is row r's bound minus its usage.
	slack  []int64
	suffix []float64
	// cur and best are indexed by branch position.
	cur      []bool
	best     []bool
	bestVal  float64
	nodes    int
	maxNodes int
}

// take includes e if every row it touches has the slack for it: it
// checks the row that failed last time, then walks e's spans subtracting
// each coefficient, and on the first row that would overflow restores
// the rows already taken, records that row as the hint and reports false.
//
//perf:hot
func (s *solver) take(e *entry) bool {
	if e.lo == e.hi {
		return true
	}
	if e.hintCoef > s.slack[e.hint] {
		return false
	}
	spans := s.spans[e.lo:e.hi]
	for i, sp := range spans {
		for r := sp.Lo; r <= sp.Hi; r++ {
			if sp.Coef > s.slack[r] {
				s.give(spans[:i])
				for q := sp.Lo; q < r; q++ {
					s.slack[q] += sp.Coef
				}
				e.hint, e.hintCoef = int32(r), sp.Coef
				return false
			}
			s.slack[r] -= sp.Coef
		}
	}
	return true
}

// give returns the spans' coefficients to the row slack; it undoes take.
//
//perf:hot
func (s *solver) give(spans []Span) {
	for _, sp := range spans {
		for r := sp.Lo; r <= sp.Hi; r++ {
			s.slack[r] += sp.Coef
		}
	}
}

// dfs returns true if the subtree was fully explored (no budget cut).
// Each variable is branched on include first (density order makes
// inclusion promising); the exclude branch continues the loop in place of
// a tail call.
//
//perf:hot
func (s *solver) dfs(k int, value float64) bool {
	complete := true
	for ; ; k++ {
		s.nodes++
		if s.nodes > s.maxNodes {
			return false
		}
		if value > s.bestVal {
			s.bestVal = value
			copy(s.best, s.cur)
		}
		if k == len(s.vars) || value+s.suffix[k] <= s.bestVal {
			return complete // a leaf, or cannot beat the incumbent
		}
		if e := &s.vars[k]; e.benefit > 0 && s.take(e) {
			s.cur[k] = true
			if !s.dfs(k+1, value+e.benefit) {
				complete = false
			}
			s.cur[k] = false
			s.give(s.spans[e.lo:e.hi])
		}
	}
}
