package lp

import (
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleLP(t *testing.T) {
	// max x+y s.t. x+2y <= 4, 3x+y <= 6, x,y >= 0  => min -(x+y)
	// Optimum at intersection: x = 8/5, y = 6/5, obj = 14/5.
	p := NewProblem(2)
	p.Obj = []float64{-1, -1}
	p.AddRow([]float64{1, 2}, LE, 4)
	p.AddRow([]float64{3, 1}, LE, 6)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Obj, -14.0/5, 1e-7) {
		t.Errorf("obj = %v, want -2.8", sol.Obj)
	}
	if !approxEq(sol.X[0], 1.6, 1e-7) || !approxEq(sol.X[1], 1.2, 1e-7) {
		t.Errorf("x = %v", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 3, x,y in [0, 2]. Optimum x=2, y=1, obj=4.
	p := NewProblem(2)
	p.Obj = []float64{1, 2}
	p.Upper = []float64{2, 2}
	p.AddRow([]float64{1, 1}, EQ, 3)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Obj, 4, 1e-7) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x <= 3, y <= 3. Optimum x=3, y=1, obj=9.
	p := NewProblem(2)
	p.Obj = []float64{2, 3}
	p.Upper = []float64{3, 3}
	p.AddRow([]float64{1, 1}, GE, 4)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Obj, 9, 1e-7) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Upper = []float64{1}
	p.AddRow([]float64{1}, GE, 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.Obj = []float64{-1}
	p.AddRow([]float64{0}, LE, 1) // vacuous row keeps m > 0
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x with x free, x >= -5 via constraint: optimum -5.
	p := NewProblem(1)
	p.Obj = []float64{1}
	p.Lower = []float64{math.Inf(-1)}
	p.Upper = []float64{math.Inf(1)}
	p.AddRow([]float64{1}, GE, -5)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Obj, -5, 1e-7) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestBoundFlipPath(t *testing.T) {
	// max x1 + x2 + x3 with all in [0, 1] and x1 + x2 + x3 <= 2.5:
	// forces bound structure; optimum 2.5.
	p := NewProblem(3)
	p.Obj = []float64{-1, -1, -1}
	p.Upper = []float64{1, 1, 1}
	p.AddRow([]float64{1, 1, 1}, LE, 2.5)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Obj, -2.5, 1e-7) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X)
	}
}

func TestDegenerateKleeMintyLike(t *testing.T) {
	// A degenerate LP that stresses anti-cycling: transportation-style ties.
	p := NewProblem(4)
	p.Obj = []float64{-1, -1, 0, 0}
	p.AddRow([]float64{1, 0, 1, 0}, EQ, 1)
	p.AddRow([]float64{0, 1, 0, 1}, EQ, 1)
	p.AddRow([]float64{1, 1, 0, 0}, LE, 1)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Obj, -1, 1e-7) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestFixedVariables(t *testing.T) {
	// x fixed at 2 by bounds; min y s.t. y >= x.
	p := NewProblem(2)
	p.Obj = []float64{0, 1}
	p.Lower = []float64{2, 0}
	p.Upper = []float64{2, math.Inf(1)}
	p.AddRow([]float64{-1, 1}, GE, 0)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.X[1], 2, 1e-7) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

// denseRows expands p's sparse columns into dense rows.
func denseRows(p *Problem) [][]float64 {
	rows := make([][]float64, len(p.B))
	for i := range rows {
		rows[i] = make([]float64, p.NumVars)
	}
	for j, c := range p.Cols {
		for k, i := range c.Rows {
			rows[i][j] = c.Vals[k]
		}
	}
	return rows
}

// bruteForceLP enumerates all candidate vertices of a small LP (every
// subset of tight constraints/bounds) and returns the best feasible
// objective, or NaN when infeasible. Only for n <= 3 and few rows.
func bruteForceLP(t *testing.T, p *Problem) float64 {
	t.Helper()
	n := p.NumVars
	// Collect hyperplanes: rows (as equalities) and finite bounds.
	rows := denseRows(p)
	var planes []plane
	for i, row := range rows {
		planes = append(planes, plane{row, p.B[i]})
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		if !math.IsInf(p.Lower[j], -1) {
			planes = append(planes, plane{e, p.Lower[j]})
		}
		if !math.IsInf(p.Upper[j], 1) {
			planes = append(planes, plane{e, p.Upper[j]})
		}
	}
	feasible := func(x []float64) bool {
		for j := 0; j < n; j++ {
			if x[j] < p.Lower[j]-1e-6 || x[j] > p.Upper[j]+1e-6 {
				return false
			}
		}
		for i, row := range rows {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += row[j] * x[j]
			}
			switch p.Rel[i] {
			case LE:
				if dot > p.B[i]+1e-6 {
					return false
				}
			case GE:
				if dot < p.B[i]-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(dot-p.B[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	best := math.NaN()
	// Choose n planes, solve the linear system, keep feasible vertices.
	idx := make([]int, n)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == n {
			x := solveSquare(planes, idx, n)
			if x == nil || !feasible(x) {
				return
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += p.Obj[j] * x[j]
			}
			if math.IsNaN(best) || obj < best {
				best = obj
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
	return best
}

type plane struct {
	a   []float64
	rhs float64
}

func solveSquare(planes []plane, idx []int, n int) []float64 {
	aug := make([][]float64, n)
	for r := 0; r < n; r++ {
		aug[r] = make([]float64, n+1)
		copy(aug[r], planes[idx[r]].a)
		aug[r][n] = planes[idx[r]].rhs
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if math.Abs(aug[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		f := aug[col][col]
		for c := col; c <= n; c++ {
			aug[col][c] /= f
		}
		for r := 0; r < n; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			g := aug[r][col]
			for c := col; c <= n; c++ {
				aug[r][c] -= g * aug[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		x[r] = aug[r][n]
	}
	return x
}

func TestAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2)
		rows := 1 + rng.Intn(3)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Obj[j] = float64(rng.Intn(11) - 5)
			p.Upper[j] = float64(1 + rng.Intn(5)) // finite box keeps it bounded
		}
		for i := 0; i < rows; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(7) - 3)
			}
			rel := Relation(rng.Intn(3))
			p.AddRow(row, rel, float64(rng.Intn(9)-2))
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceLP(t, p)
		switch sol.Status {
		case Optimal:
			if math.IsNaN(want) {
				t.Errorf("trial %d: simplex optimal %v but brute force says infeasible", trial, sol.Obj)
			} else if !approxEq(sol.Obj, want, 1e-5) {
				t.Errorf("trial %d: simplex %v, brute force %v", trial, sol.Obj, want)
			}
		case Infeasible:
			if !math.IsNaN(want) {
				t.Errorf("trial %d: simplex infeasible but brute force found %v", trial, want)
			}
		case Unbounded:
			t.Errorf("trial %d: unexpected unbounded on a box-bounded LP", trial)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProblem(2)
	p.Obj = []float64{1}
	if err := p.Validate(); err == nil {
		t.Error("want objective length error")
	}
	p = NewProblem(1)
	p.Lower[0] = 2
	p.Upper[0] = 1
	if err := p.Validate(); err == nil {
		t.Error("want crossed bounds error")
	}
	for name, mutate := range map[string]func(q *Problem){
		"column count":     func(q *Problem) { q.Cols = q.Cols[:1] },
		"values length":    func(q *Problem) { q.Cols[1].Vals = q.Cols[1].Vals[:1] },
		"row out of range": func(q *Problem) { q.Cols[0].Rows = []int32{2} },
		"rows unordered":   func(q *Problem) { q.Cols[1].Rows = []int32{1, 0} },
		"relations":        func(q *Problem) { q.Rel = q.Rel[:1] },
	} {
		q := NewProblem(2)
		q.AddRow([]float64{1, 1}, EQ, 1)
		q.AddRow([]float64{0, 1}, EQ, 1)
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: want a validation error", name)
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
