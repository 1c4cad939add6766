package ccsched

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"
)

// TestExactSolversEnforceLimits checks the documented size limits are
// enforced with the ErrTooLarge sentinel instead of running forever.
func TestExactSolversEnforceLimits(t *testing.T) {
	big_ := &Instance{M: 2, Slots: 2}
	for j := 0; j < 30; j++ {
		big_.P = append(big_.P, int64(j+1))
		big_.Class = append(big_.Class, j%3)
	}
	ctx := context.Background()
	if _, err := Solve(ctx, big_, Options{Variant: NonPreemptive, Tier: TierExact}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("exact non-preemptive (30 jobs) = %v, want ErrTooLarge", err)
	}
	wide := &Instance{M: 7, Slots: 2}
	for j := 0; j < 8; j++ {
		wide.P = append(wide.P, 5)
		wide.Class = append(wide.Class, j)
	}
	if _, err := Solve(ctx, wide, Options{Variant: Splittable, Tier: TierExact}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("exact splittable (C=8, m=7) = %v, want ErrTooLarge", err)
	}
}

// TestRatConvertersAtBoundary builds a schedule by hand through the public
// converters and validates it with exact arithmetic.
func TestRatConvertersAtBoundary(t *testing.T) {
	in := &Instance{P: []int64{5}, Class: []int{0}, M: 2, Slots: 1}
	s := &SplitSchedule{Pieces: []SplitPiece{
		{Job: 0, Machine: 0, Size: RatValue(5, 2)},
		{Job: 0, Machine: 1, Size: RatFromBig(big.NewRat(5, 2))},
	}}
	if err := s.Validate(in); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if got := s.Makespan(); got.Cmp(big.NewRat(5, 2)) != 0 {
		t.Errorf("Makespan() = %s, want 5/2", got.RatString())
	}
}

// TestConcurrentSolversWithOptions runs solvers with different explicit
// limits in parallel; with the former package-level global this was a data
// race (caught under -race).
func TestConcurrentSolversWithOptions(t *testing.T) {
	in, err := Generate("uniform", GeneratorConfig{
		N: 50, Classes: 6, Machines: 8, Slots: 2, PMax: 100, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		limit := int64(1)
		if i%2 == 0 {
			limit = 1 << 16
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Solve(context.Background(), in, Options{Variant: Splittable, Tier: TierApprox, ExplicitMachineLimit: limit})
			if err != nil {
				t.Error(err)
				return
			}
			if err := res.CompactSplit.Validate(in); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
