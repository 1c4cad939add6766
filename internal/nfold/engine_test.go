package nfold

import (
	"math/rand"
	"testing"

	"ccsched/internal/ilp"
	"ccsched/internal/trace"
)

// tracedAuto solves p with EngineAuto under a fresh collector and returns
// the result with the exported spans.
func tracedAuto(t *testing.T, p *Problem) (*Result, []trace.SpanRecord) {
	t.Helper()
	c := trace.NewCollector(0)
	root := c.Root("probe")
	res, err := Solve(p, &Options{Engine: EngineAuto, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	return res, c.Export().Spans
}

// engineSpans checks the EngineAuto span shape — exactly one bb span, a
// child of the probe, and at most one nfold_augment span, a child of bb —
// and returns the bb span and whether augmentation ran.
func engineSpans(t *testing.T, spans []trace.SpanRecord) (bb trace.SpanRecord, augmented bool) {
	t.Helper()
	bbIdx := -1
	for i, sp := range spans {
		switch sp.Name {
		case "bb":
			if bbIdx >= 0 || sp.Parent != 0 {
				t.Fatalf("want one bb span under the probe, got %+v", spans)
			}
			bbIdx = i
		case "nfold_augment":
			if augmented || sp.Parent != bbIdx || bbIdx < 0 {
				t.Fatalf("want at most one nfold_augment span under bb, got %+v", spans)
			}
			augmented = true
		}
	}
	if bbIdx < 0 {
		t.Fatalf("no bb span in %+v", spans)
	}
	return spans[bbIdx], augmented
}

// fractionalRootProblem has one brick and one global row 2x + 3y = 5 with
// 0 ≤ x, y ≤ 5: every vertex of its LP relaxation is fractional (x = 5/2 or
// y = 5/3), yet x = y = 1 is integral and augmentation finds it.
func fractionalRootProblem() *Problem {
	p := NewUniform(1, [][]int64{{2, 3}}, [][]int64{})
	p.GlobalRHS[0] = 5
	p.Upper[0][0], p.Upper[0][1] = 5, 5
	return p
}

// TestAutoRootDecidesWithoutAugmentation: an infeasible or integral root LP
// answers the probe from branch and bound's single root node, and the
// augmentation heuristic never starts.
func TestAutoRootDecidesWithoutAugmentation(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
		want Status
	}{
		{"infeasible root", infeasibleProblem(), Infeasible},
		{"integral root", tinyProblem(), Feasible},
	} {
		res, spans := tracedAuto(t, tc.p)
		bb, augmented := engineSpans(t, spans)
		if augmented {
			t.Errorf("%s: augmentation ran", tc.name)
		}
		if res.Status != tc.want || res.Engine != EngineBranchBound || res.Nodes != 1 {
			t.Errorf("%s: status %v engine %s nodes %d, want %v from one branch-and-bound node",
				tc.name, res.Status, res.Engine, res.Nodes, tc.want)
		}
		if n, _ := bb.Attr("nodes"); n != 1 {
			t.Errorf("%s: bb span records %d nodes, want the root only", tc.name, n)
		}
		if res.Status == Feasible {
			if err := tc.p.Check(res.X); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// TestAutoAugmentsFractionalRoot: a fractional root runs augmentation once,
// inside the bb span; when it succeeds its solution and step count are the
// answer and branching never starts.
func TestAutoAugmentsFractionalRoot(t *testing.T) {
	p := fractionalRootProblem()
	aug, err := Solve(p, &Options{Engine: EngineAugment})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Status != Feasible {
		t.Fatalf("augmentation alone: %v, want feasible", aug.Status)
	}
	res, spans := tracedAuto(t, p)
	bb, augmented := engineSpans(t, spans)
	if !augmented {
		t.Fatal("augmentation did not run on a fractional root")
	}
	if res.Status != Feasible || res.Engine != EngineAugment || res.Nodes != aug.Nodes {
		t.Fatalf("status %v engine %s nodes %d, want augmentation's feasible answer in %d steps",
			res.Status, res.Engine, res.Nodes, aug.Nodes)
	}
	for j := range aug.X[0] {
		if res.X[0][j] != aug.X[0][j] {
			t.Fatalf("x = %v, want augmentation's %v", res.X, aug.X)
		}
	}
	if res.Pivots == 0 {
		t.Error("the root solve's pivots are missing")
	}
	if st, _ := bb.Attr("status"); st != int64(ilp.Stopped) {
		t.Errorf("bb span status %d, want stopped after the root", st)
	}
	if n, _ := bb.Attr("nodes"); n != 1 {
		t.Errorf("bb span records %d nodes, want the root only", n)
	}
}

// TestAutoMatchesBranchBound: on random small N-folds EngineAuto's verdict
// equals exact branch and bound's wherever the latter decides. When
// augmentation does not decide, branching continues from the root already
// solved, so Auto reports exactly branch and bound's node and pivot counts:
// the root is solved once per probe, never again.
func TestAutoMatchesBranchBound(t *testing.T) {
	augmentDecided, fellThrough := 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		p := randomProblem(rand.New(rand.NewSource(seed)))
		exact, err := Solve(p, &Options{Engine: EngineBranchBound, FirstFeasible: true, MaxNodes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		res, spans := tracedAuto(t, p)
		bb, augmented := engineSpans(t, spans)
		if exact.Status != Unknown && res.Status != exact.Status {
			t.Fatalf("seed %d: auto %v, branch and bound %v", seed, res.Status, exact.Status)
		}
		if res.Status == Feasible {
			if err := p.Check(res.X); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if augmented != (exact.Nodes > 1) {
			t.Fatalf("seed %d: augmentation ran = %v on a root that took %d nodes", seed, augmented, exact.Nodes)
		}
		if res.Engine == EngineAugment {
			augmentDecided++
			if n, _ := bb.Attr("nodes"); n != 1 {
				t.Fatalf("seed %d: %d bb nodes before augmentation decided, want 1", seed, n)
			}
			continue
		}
		if augmented {
			fellThrough++
		}
		if res.Nodes != exact.Nodes || res.Pivots != exact.Pivots {
			t.Fatalf("seed %d: auto took %d nodes / %d pivots, branch and bound %d / %d",
				seed, res.Nodes, res.Pivots, exact.Nodes, exact.Pivots)
		}
	}
	t.Logf("augmentation decided %d probes, fell through to branching on %d", augmentDecided, fellThrough)
	if augmentDecided == 0 || fellThrough == 0 {
		t.Errorf("sample too narrow: augmentation decided %d, fell through to branching %d", augmentDecided, fellThrough)
	}
}
