package ilp

import (
	"math/rand"
	"testing"
)

// bruteForce solves tiny instances exactly.
func bruteForce(p *Problem) float64 {
	n := len(p.Benefit)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		usage := make([]int64, len(p.Bound))
		for vi, col := range p.Cols {
			if mask&(1<<vi) == 0 {
				continue
			}
			for _, sp := range col {
				for r := sp.Lo; r <= sp.Hi; r++ {
					usage[r] += sp.Coef
				}
			}
		}
		feasible := true
		for r, u := range usage {
			if u > p.Bound[r] {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		var val float64
		for vi, b := range p.Benefit {
			if mask&(1<<vi) != 0 {
				val += b
			}
		}
		if val > best {
			best = val
		}
	}
	return best
}

// oneRow builds a single-constraint problem: Σ w[i]·x[i] ≤ bound.
func oneRow(benefit []float64, w []int64, bound int64) *Problem {
	p := &Problem{Benefit: benefit, Bound: []int64{bound}, Cols: make([][]Span, len(w))}
	for i, c := range w {
		p.Cols[i] = []Span{{Lo: 0, Hi: 0, Coef: c}}
	}
	return p
}

func TestKnapsackExact(t *testing.T) {
	// Classic knapsack: values 60/100/120, weights 10/20/30, capacity 50.
	p := oneRow([]float64{60, 100, 120}, []int64{10, 20, 30}, 50)
	res := Solve(p, 0)
	if !res.Optimal {
		t.Fatal("tiny instance not proved optimal")
	}
	if res.Value != 220 {
		t.Fatalf("value %v, want 220 (items 1+2)", res.Value)
	}
	if res.X[0] || !res.X[1] || !res.X[2] {
		t.Fatalf("selection %v", res.X)
	}
}

func TestNegativeBenefitsNeverChosen(t *testing.T) {
	p := &Problem{Benefit: []float64{-5, 10, -1}, Cols: make([][]Span, 3)}
	res := Solve(p, 0)
	if res.X[0] || res.X[2] {
		t.Fatal("negative-benefit variable selected")
	}
	if res.Value != 10 {
		t.Fatalf("value %v", res.Value)
	}
}

func TestExclusivityConstraint(t *testing.T) {
	// Two mutually exclusive variables; the better one must win.
	p := oneRow([]float64{5, 8}, []int64{1, 1}, 1)
	res := Solve(p, 0)
	if res.Value != 8 || res.X[0] || !res.X[1] {
		t.Fatalf("exclusivity broken: %v value %v", res.X, res.Value)
	}
}

func TestMultiDimensional(t *testing.T) {
	// Two capacity rows; only combinations feasible under both count.
	p := &Problem{
		Benefit: []float64{10, 10, 10},
		Bound:   []int64{10, 10},
		Cols: [][]Span{
			{{Lo: 0, Hi: 0, Coef: 5}, {Lo: 1, Hi: 1, Coef: 9}},
			{{Lo: 0, Hi: 0, Coef: 5}, {Lo: 1, Hi: 1, Coef: 1}},
			{{Lo: 0, Hi: 0, Coef: 5}, {Lo: 1, Hi: 1, Coef: 1}},
		},
	}
	res := Solve(p, 0)
	// All three violate row 0 (15 > 10); {0,1} and {0,2} sit exactly on
	// row 1's bound (10 <= 10 is ok!) — check against brute force.
	want := bruteForce(p)
	if res.Value != want {
		t.Fatalf("value %v, brute force %v", res.Value, want)
	}
}

func TestMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := randomSmall(rng)
		res := Solve(p, 0)
		want := bruteForce(p)
		if res.Value != want {
			t.Fatalf("trial %d: solver %v, brute force %v", trial, res.Value, want)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: tiny instance not proved optimal", trial)
		}
	}
}

// randomSmall draws an instance small enough for bruteForce: 2–9
// variables over 1–3 rows, each variable in each row with probability
// one half.
func randomSmall(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(8)
	p := &Problem{Benefit: make([]float64, n), Cols: make([][]Span, n)}
	for i := range p.Benefit {
		p.Benefit[i] = float64(rng.Intn(40) - 5)
	}
	rows := 1 + rng.Intn(3)
	for r := 0; r < rows; r++ {
		p.Bound = append(p.Bound, int64(10+rng.Intn(40)))
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				p.Cols[i] = append(p.Cols[i], Span{Lo: r, Hi: r, Coef: int64(1 + rng.Intn(20))})
			}
		}
	}
	return p
}

// randomKnapsack draws a single-row instance with n variables from rng,
// returning it with its weights.
func randomKnapsack(rng *rand.Rand, n int, bound int64, maxB, maxW int) (*Problem, []int64) {
	benefit := make([]float64, n)
	w := make([]int64, n)
	for i := range benefit {
		benefit[i] = float64(1 + rng.Intn(maxB))
		w[i] = int64(1 + rng.Intn(maxW))
	}
	return oneRow(benefit, w, bound), w
}

func TestAnytimeUnderBudget(t *testing.T) {
	// A large instance with a tiny node budget: must return a feasible
	// incumbent, not crash or claim optimality falsely.
	p, weight := randomKnapsack(rand.New(rand.NewSource(5)), 200, 500, 100, 50)
	res := Solve(p, 500)
	if res.Value <= 0 {
		t.Fatal("no incumbent found")
	}
	if res.Optimal {
		t.Fatal("claimed optimality within a 500-node budget")
	}
	// Verify feasibility of the returned solution.
	var w int64
	for i, x := range res.X {
		if x {
			w += weight[i]
		}
	}
	if w > p.Bound[0] {
		t.Fatalf("infeasible incumbent: weight %v > %v", w, p.Bound[0])
	}
}

func TestSolverBeatsOrMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p, weight := randomKnapsack(rng, 30, 100, 50, 30)
		// Greedy by density.
		type item struct{ b, w float64 }
		items := make([]item, len(weight))
		for i := range items {
			items[i] = item{p.Benefit[i], float64(weight[i])}
		}
		var greedy float64
		cap := float64(p.Bound[0])
		for {
			best, bi := 0.0, -1
			for i, it := range items {
				if it.w <= cap && it.b/it.w > best {
					best, bi = it.b/it.w, i
				}
			}
			if bi < 0 {
				break
			}
			greedy += items[bi].b
			cap -= items[bi].w
			items[bi].w = 1e18
		}
		res := Solve(p, 100_000)
		if res.Value < greedy {
			t.Fatalf("trial %d: solver %v below greedy %v", trial, res.Value, greedy)
		}
	}
}

// TestSearchAllocatesNothing proves the branch and bound itself is
// allocation-free: Solve's allocations are its set-up, so they do not
// grow with the node budget.
func TestSearchAllocatesNothing(t *testing.T) {
	p, _ := randomKnapsack(rand.New(rand.NewSource(11)), 120, 400, 100, 50)
	allocs := func(maxNodes int) float64 {
		return testing.AllocsPerRun(5, func() {
			if res := Solve(p, maxNodes); res.Nodes <= maxNodes {
				t.Fatalf("budget %d not exhausted (%d nodes); the comparison proves nothing", maxNodes, res.Nodes)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Fatalf("Solve allocates %v times with 1k nodes but %v with 100k: the search allocates", small, large)
	}
}
