package ilp

import (
	"math/rand"
	"testing"

	"ccsched/internal/lp"
)

// randomFeasibilityILP builds a zero-objective integer feasibility problem
// with a planted solution, the shape of the PTAS configuration ILPs.
func randomFeasibilityILP(rng *rand.Rand, m, n int) *Problem {
	p := NewProblem(n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Upper[j] = float64(2 + rng.Intn(6))
		x[j] = float64(rng.Intn(int(p.Upper[j]) + 1))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		rhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				row[j] = float64(rng.Intn(5) - 2)
				rhs += row[j] * x[j]
			}
		}
		p.AddRow(row, lp.EQ, rhs)
	}
	return p
}

// TestWarmStartParity pins the warm-start contract at the branch-and-bound
// level: identical status, node count, and solution with NoWarmStart on and
// off, across random feasibility problems — while the warm runs actually
// prune (WarmHits > 0 somewhere).
func TestWarmStartParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var totalHits int
	for trial := 0; trial < 40; trial++ {
		p := randomFeasibilityILP(rng, 6, 12)
		warm, err := Solve(p, &Options{FirstFeasible: true, MaxNodes: 3000})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p, &Options{FirstFeasible: true, MaxNodes: 3000, NoWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status || warm.Nodes != cold.Nodes {
			t.Fatalf("trial %d: warm (%v, %d nodes) != cold (%v, %d nodes)",
				trial, warm.Status, warm.Nodes, cold.Status, cold.Nodes)
		}
		if (warm.X == nil) != (cold.X == nil) {
			t.Fatalf("trial %d: solution presence diverged", trial)
		}
		for j := range warm.X {
			if warm.X[j] != cold.X[j] {
				t.Fatalf("trial %d: X[%d] = %v != %v", trial, j, warm.X[j], cold.X[j])
			}
		}
		if cold.WarmHits != 0 {
			t.Fatalf("trial %d: cold run counted %d warm hits", trial, cold.WarmHits)
		}
		totalHits += warm.WarmHits
		if warm.WarmHits > 0 && warm.Pivots >= cold.Pivots {
			// Not an invariant (restores add pivots too), but flag the case
			// for visibility if pruning never saves anything.
			t.Logf("trial %d: warm pivots %d >= cold pivots %d despite %d prunes",
				trial, warm.Pivots, cold.Pivots, warm.WarmHits)
		}
	}
	if totalHits == 0 {
		t.Fatal("no branch-and-bound node was ever warm-pruned; parity test is vacuous")
	}
}
