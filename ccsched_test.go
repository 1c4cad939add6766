package ccsched

import (
	"context"
	"math/big"
	"testing"
)

func apiInstance() *Instance {
	return &Instance{
		P:     []int64{7, 4, 9, 3, 5},
		Class: []int{0, 0, 1, 2, 1},
		M:     2,
		Slots: 2,
	}
}

func TestFacadeRoundTrip(t *testing.T) {
	in := apiInstance()
	parsed, err := ParseInstance(FormatInstance(in))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.N() != in.N() || parsed.M != in.M {
		t.Error("facade round trip mismatch")
	}
	if err := CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeApproxAll(t *testing.T) {
	in := apiInstance()
	s, err := ApproxSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact.Validate(in); err != nil {
		t.Error(err)
	}
	p, err := ApproxPreemptive(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Schedule.Validate(in); err != nil {
		t.Error(err)
	}
	np, err := ApproxNonPreemptive(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := np.Schedule.Validate(in); err != nil {
		t.Error(err)
	}
	// Relaxation ordering on the same instance.
	if s.Makespan().Cmp(core2Rat(np.Makespan(in))) > 0 {
		// Splittable approx can exceed non-preemptive approx only through
		// approximation slack, but both stay within 2x/7/3x of their LBs,
		// so we only sanity-check against gross inversions.
		lb, _ := LowerBound(in, Splittable)
		if s.Makespan().Cmp(new(big.Rat).Mul(lb, big.NewRat(2, 1))) > 0 {
			t.Error("splittable approx exceeds its guarantee")
		}
	}
}

func core2Rat(v int64) *big.Rat { return new(big.Rat).SetInt64(v) }

func TestFacadeGenerate(t *testing.T) {
	for _, fam := range GeneratorFamilies() {
		in, err := Generate(fam, GeneratorConfig{N: 20, Classes: 4, Machines: 3, Slots: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", fam, err)
		}
	}
	if _, err := Generate("bogus", GeneratorConfig{}); err == nil {
		t.Error("want unknown family error")
	}
}

func TestFacadeExact(t *testing.T) {
	in := apiInstance()
	sched, opt, err := ExactNonPreemptive(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(in); err != nil {
		t.Error(err)
	}
	if sched.Makespan(in) != opt {
		t.Error("schedule does not match reported optimum")
	}
	splitOpt, err := ExactSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	if splitOpt.Cmp(core2Rat(opt)) > 0 {
		t.Error("splittable optimum exceeds non-preemptive optimum")
	}
	lb, err := LowerBound(in, Splittable)
	if err != nil {
		t.Fatal(err)
	}
	if splitOpt.Cmp(lb) < 0 {
		t.Error("splittable optimum below certified lower bound")
	}
}

func TestFacadePTAS(t *testing.T) {
	in := apiInstance()
	res, err := Solve(context.Background(), in, Options{Variant: NonPreemptive, Tier: TierPTAS, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NonPreemptive.Validate(in); err != nil {
		t.Error(err)
	}
	_, opt, err := ExactNonPreemptive(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NonPreemptive.Makespan(in); 3*got > 7*opt {
		t.Errorf("PTAS result %d above 7/3 x OPT %d", got, opt)
	}
}
