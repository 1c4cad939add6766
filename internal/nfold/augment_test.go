package nfold

import "testing"

// slackProblem mimics the PTAS shape: a structural column coupled to a
// dedicated slack column through a global row with a large coefficient.
// Global rows: (1) x + 0s = 2 and (2) 40x − s = 0; one brick, bounds wide.
func slackProblem() *Problem {
	a := [][]int64{
		{1, 0},
		{40, -1},
	}
	b := [][]int64{} // no local rows
	p := NewUniform(1, a, b)
	p.GlobalRHS[0] = 2
	p.GlobalRHS[1] = 0
	p.Upper[0][0] = 10
	p.Upper[0][1] = 1000
	return p
}

func TestFindSlackColumns(t *testing.T) {
	p := slackProblem()
	slackFor := findSlackColumns(p, 0)
	if slackFor[0] != -1 {
		t.Errorf("column 0 misidentified as slack (row %d)", slackFor[0])
	}
	if slackFor[1] != 1 {
		t.Errorf("column 1 should serve global row 1, got %d", slackFor[1])
	}
}

// TestAugmentSlackCompletion: singles alone stall (a unit x-step leaves a
// ±40 residual on the slack row), but the slack-completed column move
// solves the problem directly.
func TestAugmentSlackCompletion(t *testing.T) {
	p := slackProblem()
	res, err := Solve(p, &Options{Engine: EngineAugment})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible {
		t.Fatalf("augment status = %v, want feasible", res.Status)
	}
	if err := p.Check(res.X); err != nil {
		t.Fatal(err)
	}
	if res.X[0][0] != 2 || res.X[0][1] != 80 {
		t.Errorf("x = %v, want [2 80]", res.X[0])
	}
}

func TestAugmentOptionsDefaults(t *testing.T) {
	d := (*AugmentOptions)(nil).defaults()
	if d.MaxCoeff != 8 || d.MaxSwapsPerBrick != 4000 || d.MaxSteps != 200000 {
		t.Errorf("unexpected defaults: %+v", d)
	}
	custom := (&AugmentOptions{MaxCoeff: 3, MaxSwapsPerBrick: 10, MaxSteps: 5}).defaults()
	if custom.MaxCoeff != 3 || custom.MaxSwapsPerBrick != 10 || custom.MaxSteps != 5 {
		t.Errorf("options not honoured: %+v", custom)
	}
}

func TestGCD(t *testing.T) {
	cases := [][3]int64{{12, 18, 6}, {7, 5, 1}, {0, 9, 9}, {-8, 12, 4}, {0, 0, 1}}
	for _, c := range cases {
		if got := gcd64(c[0], c[1]); got != c[2] {
			t.Errorf("gcd(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestTheoreticalCostGrowsWithDelta(t *testing.T) {
	small := tinyProblem()
	big := tinyProblem()
	big.A[0][0][0] = 50 // larger Δ
	if big.TheoreticalCostLog2() <= small.TheoreticalCostLog2() {
		t.Error("Theorem 1 bound should grow with Δ")
	}
}
