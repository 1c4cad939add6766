package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"ccsched/internal/lp"
	"ccsched/internal/testutil"
)

func TestKnapsack(t *testing.T) {
	// max 10x1 + 13x2 + 7x3  s.t. 3x1 + 4x2 + 2x3 <= 6, x binary.
	// Best: x1=0, x2=1, x3=1 -> 20.
	p := NewProblem(3)
	p.Obj = []float64{-10, -13, -7}
	p.Upper = []float64{1, 1, 1}
	p.AddRow([]float64{3, 4, 2}, lp.LE, 6)
	res, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj+20) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", res.Status, res.Obj, res.X)
	}
}

func TestIntegralityMatters(t *testing.T) {
	// LP relaxation feasible (x = 0.5) but no integral point:
	// 2x = 1 with x integer.
	p := NewProblem(1)
	p.Upper = []float64{10}
	p.AddRow([]float64{2}, lp.EQ, 1)
	res, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestMixedInteger(t *testing.T) {
	// min -x - y with x integer in [0,3], y continuous in [0, 2.5],
	// x + y <= 4.2. Optimum: x=3, y=1.2 -> -4.2.
	p := NewProblem(2)
	p.Obj = []float64{-1, -1}
	p.Upper = []float64{3, 2.5}
	p.Integer[1] = false
	p.AddRow([]float64{1, 1}, lp.LE, 4.2)
	res, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj+4.2) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", res.Status, res.Obj, res.X)
	}
	if res.X[0] != 3 {
		t.Errorf("x0 = %v, want 3", res.X[0])
	}
}

func TestFirstFeasibleStopsEarly(t *testing.T) {
	// Zero objective: any integral point works.
	p := NewProblem(2)
	p.Upper = []float64{5, 5}
	p.AddRow([]float64{1, 1}, lp.EQ, 4)
	res, err := Solve(p, &Options{FirstFeasible: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.X == nil {
		t.Fatalf("status=%v", res.Status)
	}
	if res.X[0]+res.X[1] != 4 {
		t.Errorf("x = %v does not satisfy the constraint", res.X)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing more than one node, starved of budget.
	p := NewProblem(6)
	for j := 0; j < 6; j++ {
		p.Obj[j] = -1
		p.Upper[j] = 1
	}
	p.AddRow([]float64{2, 2, 2, 2, 2, 2}, lp.LE, 5)
	res, err := Solve(p, &Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != NodeLimit {
		t.Fatalf("status = %v, want node-limit", res.Status)
	}
}

func TestUnboundedRejected(t *testing.T) {
	p := NewProblem(1)
	p.Obj = []float64{-1}
	p.AddRow([]float64{0}, lp.LE, 1)
	if _, err := Solve(p, nil); err == nil {
		t.Error("want unbounded error")
	}
}

func TestValidation(t *testing.T) {
	p := NewProblem(2)
	p.Integer = p.Integer[:1]
	if _, err := Solve(p, nil); err == nil {
		t.Error("want Integer length error")
	}
}

// bruteForceIP enumerates all integral points in the box and returns the
// best objective, or NaN if none is feasible.
func bruteForceIP(p *Problem) float64 {
	n := p.NumVars
	rows := make([][]float64, len(p.B))
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	for j, c := range p.Cols {
		for k, i := range c.Rows {
			rows[i][j] = c.Vals[k]
		}
	}
	best := math.NaN()
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for i, row := range rows {
				dot := 0.0
				for k := 0; k < n; k++ {
					dot += row[k] * x[k]
				}
				switch p.Rel[i] {
				case lp.LE:
					if dot > p.B[i]+1e-9 {
						return
					}
				case lp.GE:
					if dot < p.B[i]-1e-9 {
						return
					}
				case lp.EQ:
					if math.Abs(dot-p.B[i]) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for k := 0; k < n; k++ {
				obj += p.Obj[k] * x[k]
			}
			if math.IsNaN(best) || obj < best {
				best = obj
			}
			return
		}
		for v := p.Lower[j]; v <= p.Upper[j]; v++ {
			x[j] = v
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(3)
		rows := 1 + rng.Intn(3)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Obj[j] = float64(rng.Intn(9) - 4)
			p.Upper[j] = float64(1 + rng.Intn(3))
		}
		for i := 0; i < rows; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(7) - 3)
			}
			p.AddRow(row, lp.Relation(rng.Intn(3)), float64(rng.Intn(7)-1))
		}
		res, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceIP(p)
		switch res.Status {
		case Optimal:
			if math.IsNaN(want) {
				t.Errorf("trial %d: ilp found %v, brute force infeasible", trial, res.Obj)
			} else if math.Abs(res.Obj-want) > 1e-6 {
				t.Errorf("trial %d: ilp %v, brute force %v", trial, res.Obj, want)
			}
		case Infeasible:
			if !math.IsNaN(want) {
				t.Errorf("trial %d: ilp infeasible, brute force %v", trial, want)
			}
		case NodeLimit:
			t.Errorf("trial %d: unexpected node limit", trial)
		}
	}
}

// randomOptimizationILP is randomFeasibilityILP with a nonzero objective, so
// full branch-and-bound runs exercise the incumbent/bound machinery rather
// than stopping at the first integral point.
func randomOptimizationILP(rng *rand.Rand, m, n int) *Problem {
	p := randomFeasibilityILP(rng, m, n)
	for j := 0; j < n; j++ {
		p.Obj[j] = float64(rng.Intn(7) - 3)
	}
	return p
}

// TestSolveCtxCancellation proves cancellation lands promptly: the per-node
// context check aborts the search with ctx.Err() and leaves no goroutine
// behind.
func TestSolveCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	leak := testutil.LeakCheck(t)
	for trial := 0; trial < 10; trial++ {
		p := randomOptimizationILP(rng, 7, 18)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(trial)*time.Millisecond)
		start := time.Now()
		res, err := SolveCtx(ctx, p, &Options{MaxNodes: 1 << 30})
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			// The solve legitimately finished inside the budget; fine.
			if res == nil {
				t.Fatal("nil result without error")
			}
			continue
		}
		if ctx.Err() == nil || err != context.DeadlineExceeded {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, context.DeadlineExceeded)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("trial %d: cancellation took %v", trial, elapsed)
		}
	}
	leak()
}
