package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ccsched/internal/testutil"
)

// randomBoundedLP builds a feasible-by-construction bounded LP with random
// integer data, the shape the N-fold flattening produces (equality rows,
// finite box).
func randomBoundedLP(rng *rand.Rand, m, n int) *Problem {
	p := NewProblem(n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Lower[j] = 0
		p.Upper[j] = float64(2 + rng.Intn(8))
		x[j] = float64(rng.Intn(int(p.Upper[j]) + 1))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		rhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				row[j] = float64(rng.Intn(7) - 3)
				rhs += row[j] * x[j]
			}
		}
		p.AddRow(row, EQ, rhs)
	}
	return p
}

// TestPreparedMatchesSolveCtx pins the arithmetic identity of the pooled
// re-solve path: repeated SolveBounds on one Prepared must return exactly
// (bit for bit) what a fresh SolveCtx returns for the same bounds.
func TestPreparedMatchesSolveCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		p := randomBoundedLP(rng, 4, 9)
		pr, err := Prepare(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for patch := 0; patch < 10; patch++ {
			j := rng.Intn(p.NumVars)
			upper[j] = math.Max(lower[j], upper[j]-1)
			var got Solution
			if err := pr.SolveBounds(context.Background(), lower, upper, nil, &got); err != nil {
				t.Fatal(err)
			}
			q := *p
			q.Lower, q.Upper = lower, upper
			want, err := SolveCtx(context.Background(), &q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status || got.Iterations != want.Iterations {
				t.Fatalf("trial %d patch %d: prepared (%v, %d iters) != fresh (%v, %d iters)",
					trial, patch, got.Status, got.Iterations, want.Status, want.Iterations)
			}
			for k := range want.X {
				if got.X[k] != want.X[k] {
					t.Fatalf("trial %d patch %d: X[%d] = %v != %v", trial, patch, k, got.X[k], want.X[k])
				}
			}
		}
		pr.Release()
	}
}

// TestWarmVerdictOnly checks the warm-start contract on random bound
// patches: a warm solve must return the same status as a cold solve, the
// identical X whenever a solution exists, and sol.Warm only together with
// Infeasible.
func TestWarmVerdictOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	warmProofs := 0
	for trial := 0; trial < 60; trial++ {
		p := randomBoundedLP(rng, 5, 10)
		pr, err := Prepare(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var root Solution
		if err := pr.SolveBounds(context.Background(), nil, nil, nil, &root); err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal {
			pr.Release()
			continue
		}
		basis := pr.CaptureBasis()
		if basis == nil {
			t.Fatal("CaptureBasis returned nil after an optimal solve")
		}
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		j := rng.Intn(p.NumVars)
		// Tighten hard enough that infeasibility is common.
		upper[j] = lower[j]
		var warm Solution
		if err := pr.SolveBounds(context.Background(), lower, upper, basis, &warm); err != nil {
			t.Fatal(err)
		}
		prCold, err := Prepare(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var cold Solution
		if err := prCold.SolveBounds(context.Background(), lower, upper, nil, &cold); err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v != cold status %v", trial, warm.Status, cold.Status)
		}
		if warm.Warm {
			warmProofs++
			if warm.Status != Infeasible {
				t.Fatalf("trial %d: Warm set with status %v", trial, warm.Status)
			}
		}
		if cold.Status == Optimal {
			for k := range cold.X {
				if warm.X[k] != cold.X[k] {
					t.Fatalf("trial %d: warm X[%d] = %v != cold %v", trial, k, warm.X[k], cold.X[k])
				}
			}
		}
		pr.Release()
		prCold.Release()
	}
	if warmProofs == 0 {
		t.Fatal("no warm restore ever proved infeasibility; the test is vacuous")
	}
}

// TestWarmRestoreProvesInfeasible pins the textbook case: the parent's
// optimal basis plus one tightened bound that empties the feasible region
// must be recognized by the dual restore without a cold solve.
func TestWarmRestoreProvesInfeasible(t *testing.T) {
	p := NewProblem(2)
	p.Upper[0], p.Upper[1] = 6, 6
	p.AddRow([]float64{1, 1}, EQ, 10)
	pr, err := Prepare(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	var root Solution
	if err := pr.SolveBounds(context.Background(), nil, nil, nil, &root); err != nil {
		t.Fatal(err)
	}
	if root.Status != Optimal {
		t.Fatalf("root status %v", root.Status)
	}
	basis := pr.CaptureBasis()
	var child Solution
	if err := pr.SolveBounds(context.Background(), []float64{0, 0}, []float64{2, 6}, basis, &child); err != nil {
		t.Fatal(err)
	}
	if child.Status != Infeasible {
		t.Fatalf("child status %v, want Infeasible", child.Status)
	}
	if !child.Warm {
		t.Fatal("infeasibility was not proven by the warm restore")
	}
}

// TestPreparedSolveAllocs pins the pooled re-solve to zero steady-state
// allocations: after Prepare, solving under fresh bounds must not allocate.
func TestPreparedSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomBoundedLP(rng, 8, 24)
	pr, err := Prepare(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	lower := append([]float64(nil), p.Lower...)
	upper := append([]float64(nil), p.Upper...)
	var sol Solution
	ctx := context.Background()
	// Warm the path once (lazy runtime state aside, the solve itself is
	// allocation-free).
	if err := pr.SolveBounds(ctx, lower, upper, nil, &sol); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := pr.SolveBounds(ctx, lower, upper, nil, &sol); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("pooled re-solve allocates %.1f objects per run, want 0", avg)
	}
}

// TestCaptureBasisAfterRelease verifies the use-after-Release guard.
func TestCaptureBasisAfterRelease(t *testing.T) {
	p := NewProblem(1)
	p.AddRow([]float64{1}, LE, 1)
	pr, err := Prepare(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	pr.Release()
	if b := pr.CaptureBasis(); b != nil {
		t.Fatal("CaptureBasis after Release should return nil")
	}
	var sol Solution
	if err := pr.SolveBounds(context.Background(), nil, nil, nil, &sol); err == nil {
		t.Fatal("SolveBounds after Release should fail")
	}
}

// TestAddRowFillsColumns: AddRow stores each row's nonzeros in the columns,
// in row order, and ignores entries past NumVars.
func TestAddRowFillsColumns(t *testing.T) {
	p := NewProblem(3)
	p.AddRow([]float64{1, 0, -2}, LE, 4)
	p.AddRow([]float64{0, 3}, EQ, 1)
	p.AddRow([]float64{5, 0, 0, 7}, GE, 0)
	want := []Column{
		{Rows: []int32{0, 2}, Vals: []float64{1, 5}},
		{Rows: []int32{1}, Vals: []float64{3}},
		{Rows: []int32{0}, Vals: []float64{-2}},
	}
	if !reflect.DeepEqual(p.Cols, want) {
		t.Fatalf("columns = %+v, want %+v", p.Cols, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareCanceled checks that Prepare stops on a canceled context, both
// on entry and between blocks of copied columns.
func TestPrepareCanceled(t *testing.T) {
	p := randomBoundedLP(rand.New(rand.NewSource(3)), 2, 3*prepareCtxBlock)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"on entry":        canceled,
		"between columns": testutil.CancelAfter(1),
	} {
		if pr, err := Prepare(ctx, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Prepare returned (%v, %v), want context.Canceled", name, pr, err)
		}
	}
}
