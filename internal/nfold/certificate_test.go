package nfold

import "testing"

// infeasibleProblem builds a tiny N-fold whose LP relaxation is infeasible:
// two bricks, one global row Σx = 10, every variable bounded by 2.
func infeasibleProblem() *Problem {
	a := [][]int64{{1, 1}}
	b := [][]int64{{1, -1}}
	p := NewUniform(2, a, b)
	p.GlobalRHS[0] = 10
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.T; j++ {
			p.Upper[i][j] = 2
		}
	}
	return p
}

// feasibleProblem is the same shape with an attainable global row.
func feasibleProblem() *Problem {
	p := infeasibleProblem()
	p.GlobalRHS[0] = 4
	return p
}

func TestInfeasibleRayCertifies(t *testing.T) {
	p := infeasibleProblem()
	res, err := Solve(p, &Options{Engine: EngineBranchBound, FirstFeasible: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", res.Status)
	}
	if res.InfeasibleRay == nil {
		t.Fatal("no Farkas ray on a root-infeasible solve")
	}
	if !p.CertifiesInfeasible(res.InfeasibleRay) {
		t.Fatal("captured ray does not certify the problem that produced it")
	}
	// The ray must keep certifying a perturbed problem that is still
	// infeasible for the same capacity reason...
	perturbed := infeasibleProblem()
	perturbed.GlobalRHS[0] = 9
	if !perturbed.CertifiesInfeasible(res.InfeasibleRay) {
		t.Fatal("ray does not transfer to a nearby still-infeasible problem")
	}
	// ...and must never certify a feasible one.
	if feasibleProblem().CertifiesInfeasible(res.InfeasibleRay) {
		t.Fatal("ray certified a feasible problem")
	}
	// Wrong dimensions are rejected outright.
	if feasibleProblem().CertifiesInfeasible(res.InfeasibleRay[:1]) {
		t.Fatal("short ray accepted")
	}
}

func TestFeasibleSolveHasNoRayAndARootBasis(t *testing.T) {
	p := feasibleProblem()
	res, err := Solve(p, &Options{Engine: EngineBranchBound, FirstFeasible: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible {
		t.Fatalf("status = %v, want Feasible", res.Status)
	}
	if res.InfeasibleRay != nil {
		t.Fatal("feasible solve produced a Farkas ray")
	}
}
