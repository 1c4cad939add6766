package ptas

import (
	"context"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// TestNonPreemptivePTASAllSmallClasses forces the degenerate N-fold where
// no class is large: no sizes, no modules, and only the empty configuration
// plus the z machinery remain.
func TestNonPreemptivePTASAllSmallClasses(t *testing.T) {
	in := &core.Instance{
		P:     []int64{1, 1, 1, 1, 1, 1},
		Class: []int{0, 1, 2, 0, 1, 2},
		M:     2,
		Slots: 2,
	}
	res, err := SolveNonPreemptive(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	lb, err := core.LowerBound(in, core.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "all-small", core.RatInt(res.Schedule.Makespan(in)), lb, 7, 3)
}

// TestSplittablePTASSingleClass covers the single-brick N-fold.
func TestSplittablePTASSingleClass(t *testing.T) {
	in := &core.Instance{P: []int64{40, 25, 35}, Class: []int{0, 0, 0}, M: 4, Slots: 1}
	res, err := SolveSplittable(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Compact.Validate(in); err != nil {
		t.Fatal(err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "single-class", res.Makespan(), lb, 2, 1)
}

// TestSplittablePTASOneSlot forces c = 1: no machine ever mixes classes.
func TestSplittablePTASOneSlot(t *testing.T) {
	in := &core.Instance{
		P:     []int64{30, 20, 10, 5},
		Class: []int{0, 1, 2, 3},
		M:     4,
		Slots: 1,
	}
	res, err := SolveSplittable(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Compact.Validate(in); err != nil {
		t.Fatal(err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "one-slot", res.Makespan(), lb, 2, 1)
}

// TestSplittablePTASTinyLoadsScale exercises the grid-scaling path on an
// instance whose optimum is far below one.
func TestSplittablePTASTinyLoadsScale(t *testing.T) {
	in := &core.Instance{P: []int64{3, 2}, Class: []int{0, 1}, M: 64, Slots: 1}
	res, err := SolveSplittable(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Compact.Validate(in); err != nil {
		t.Fatal(err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "tiny-loads", res.Makespan(), lb, 2, 1)
}

// TestPTASInfeasibleInstance rejects C > c·m for all three schemes.
func TestPTASInfeasibleInstance(t *testing.T) {
	in := &core.Instance{P: []int64{1, 1, 1}, Class: []int{0, 1, 2}, M: 1, Slots: 2}
	if _, err := SolveSplittable(context.Background(), in, Options{Epsilon: 0.5}); err == nil {
		t.Error("splittable: want infeasibility error")
	}
	if _, err := SolveNonPreemptive(context.Background(), in, Options{Epsilon: 0.5}); err == nil {
		t.Error("non-preemptive: want infeasibility error")
	}
	if _, err := SolvePreemptive(context.Background(), in, Options{Epsilon: 0.5}); err == nil {
		t.Error("preemptive: want infeasibility error")
	}
}

// TestPTASBadEpsilon rejects out-of-range accuracies.
func TestPTASBadEpsilon(t *testing.T) {
	in := &core.Instance{P: []int64{5}, Class: []int{0}, M: 1, Slots: 1}
	for _, eps := range []float64{0, -0.5, 2} {
		if _, err := SolveSplittable(context.Background(), in, Options{Epsilon: eps}); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
}

// TestScaleFactor pins the scaling arithmetic.
func TestScaleFactor(t *testing.T) {
	if s := scaleFactor(core.RatFrac(1, 100), 10, 16); s < 1600 || s > 3200 {
		t.Errorf("scaleFactor(1/100 -> 16) = %d, want ~2048", s)
	}
	if s := scaleFactor(core.RatInt(100), 10, 16); s != 1 {
		t.Errorf("already large enough: got %d", s)
	}
}

// TestScaledBoundIsExact backs runScheme's reuse of the caller's bound on a
// scaled instance: for the splittable and preemptive variants, the two
// that scale, the certified bound of the instance with every processing
// time multiplied by s is s times the bound.
func TestScaledBoundIsExact(t *testing.T) {
	for _, fam := range generator.Families() {
		for seed := int64(1); seed <= 4; seed++ {
			in := fam.Gen(generator.Config{N: 30, Classes: 6, Machines: 4, Slots: 2, PMax: 50, Seed: seed})
			for _, v := range []core.Variant{core.Splittable, core.Preemptive} {
				lb, err := core.LowerBoundR(in, v)
				if err != nil {
					t.Fatal(err)
				}
				for s := int64(2); s <= 1<<20; s <<= 3 {
					got, err := core.NewClassIndex(in, v).Scaled(s).LowerBound()
					if err != nil {
						t.Fatal(err)
					}
					if want := lb.MulInt(s); !got.Equal(want) {
						t.Fatalf("%s seed %d %v scale %d: bound %s, want %s", fam.Name, seed, v, s, got.Rat().RatString(), want.Rat().RatString())
					}
				}
			}
		}
	}
}
