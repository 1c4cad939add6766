package ccsched

// Differential tests for the int64 fast-path migration: the rat.R arithmetic
// must be *exact*, so every solver's rational outputs (guess and makespan,
// compared as rationals, never as floats) must be bit-identical to what the
// pre-migration pure *big.Rat pipeline produced. The reference below is a
// verbatim big.Rat re-implementation of the guess computation (area lower
// bound and Lemma 2 border search) that the solvers previously ran on
// *big.Rat; schedules themselves are cross-checked by exact validation and
// by comparing the explicit and compact forms piece by piece.

import (
	"fmt"
	"math/big"
	"testing"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// refSlotsNeeded is the pre-migration ⌈pu/t⌉ on pure big arithmetic.
func refSlotsNeeded(pu int64, t *big.Rat) int64 {
	num := new(big.Int).Mul(big.NewInt(pu), t.Denom())
	q, r := new(big.Int).QuoRem(num, t.Num(), new(big.Int))
	if r.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}

func refTotalSlots(loads []int64, t *big.Rat, limit int64) int64 {
	var sum int64
	for _, pu := range loads {
		need := refSlotsNeeded(pu, t)
		if need > limit || sum > limit-need {
			return limit + 1
		}
		sum += need
	}
	return sum
}

// refBorderBound re-implements core.SlotLowerBoundSplit on pure *big.Rat,
// mirroring the pre-migration code path exactly.
func refBorderBound(t *testing.T, in *core.Instance) *big.Rat {
	t.Helper()
	if err := core.CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	loads := in.ClassLoads()
	budget := int64(in.Slots)
	const sentinel = int64(1) << 60
	if in.M > sentinel/budget {
		budget = sentinel
	} else {
		budget *= in.M
	}
	best := new(big.Rat)
	for _, pu := range loads {
		if cand := new(big.Rat).SetInt64(pu); cand.Cmp(best) > 0 {
			best = cand
		}
	}
	if best.Sign() == 0 {
		return best
	}
	kmax := in.M
	if n := int64(in.N()) + in.M; kmax > n || kmax < 0 {
		kmax = n
	}
	for _, pu := range loads {
		if pu == 0 {
			continue
		}
		if refTotalSlots(loads, new(big.Rat).SetInt64(pu), budget) > budget {
			continue
		}
		lo, hi := int64(1), kmax
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if refTotalSlots(loads, big.NewRat(pu, mid), budget) <= budget {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if cand := big.NewRat(pu, lo); cand.Cmp(best) < 0 {
			best = cand
		}
	}
	return best
}

// refSplittableGuess is the pre-migration T̂ = max(Σp/m, border).
func refSplittableGuess(t *testing.T, in *core.Instance) *big.Rat {
	area := big.NewRat(in.TotalLoad(), in.M)
	border := refBorderBound(t, in)
	if border.Cmp(area) > 0 {
		return border
	}
	return area
}

func diffInstances(t *testing.T) map[string]*core.Instance {
	t.Helper()
	out := make(map[string]*core.Instance)
	for _, fam := range generator.Families() {
		for seed := int64(1); seed <= 5; seed++ {
			in := fam.Gen(generator.Config{
				N: 60, Classes: 8, Machines: 7, Slots: 2, PMax: 500, Seed: seed,
			})
			out[fmt.Sprintf("%s/seed=%d", fam.Name, seed)] = in
		}
	}
	return out
}

// TestDifferentialSplittableGuess proves the fast-path guess is bit-identical
// to the big.Rat reference on all six generator families, seeds 1–5.
func TestDifferentialSplittableGuess(t *testing.T) {
	for name, in := range diffInstances(t) {
		t.Run(name, func(t *testing.T) {
			res, err := approx.SolveSplittable(in)
			if err != nil {
				t.Fatal(err)
			}
			want := refSplittableGuess(t, in)
			if res.Guess.Cmp(want) != 0 {
				t.Errorf("fast-path guess %s != big.Rat reference %s",
					res.Guess.RatString(), want.RatString())
			}
			// The border bound itself must also agree exactly.
			border, err := core.SlotLowerBoundSplit(in)
			if err != nil {
				t.Fatal(err)
			}
			if ref := refBorderBound(t, in); border.Cmp(ref) != 0 {
				t.Errorf("fast-path border %s != reference %s", border.RatString(), ref.RatString())
			}
		})
	}
}

// TestDifferentialSolverMakespans runs all three constant-factor solvers on
// every family/seed pair and checks the emitted rational makespans exactly:
// schedules validate under exact arithmetic, the explicit and compact
// splittable forms agree as rationals, and the preemptive guess matches its
// reference max(p_max, area, border).
func TestDifferentialSolverMakespans(t *testing.T) {
	for name, in := range diffInstances(t) {
		t.Run(name, func(t *testing.T) {
			sres, err := approx.SolveSplittable(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := sres.Compact.Validate(in); err != nil {
				t.Fatalf("splittable compact invalid: %v", err)
			}
			if sres.Explicit != nil {
				if err := sres.Explicit.Validate(in); err != nil {
					t.Fatalf("splittable explicit invalid: %v", err)
				}
				if sres.Explicit.Makespan().Cmp(sres.Compact.Makespan()) != 0 {
					t.Errorf("explicit makespan %s != compact %s",
						sres.Explicit.Makespan().RatString(), sres.Compact.Makespan().RatString())
				}
			}
			// The compact construction path (forced via the options struct)
			// must produce the same guess and a validating schedule too.
			cres, err := approx.SolveSplittableOpts(in, approx.Options{ExplicitMachineLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			if cres.Guess.Cmp(sres.Guess) != 0 {
				t.Errorf("compact-path guess %s != explicit-path %s",
					cres.Guess.RatString(), sres.Guess.RatString())
			}
			if err := cres.Compact.Validate(in); err != nil {
				t.Fatalf("forced compact invalid: %v", err)
			}

			pres, err := approx.SolvePreemptive(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := pres.Schedule.Validate(in); err != nil {
				t.Fatalf("preemptive invalid: %v", err)
			}
			if in.M < int64(in.N()) {
				want := refSplittableGuess(t, in)
				if pm := new(big.Rat).SetInt64(in.PMax()); pm.Cmp(want) > 0 {
					want = pm
				}
				if pres.Guess.Cmp(want) != 0 {
					t.Errorf("preemptive guess %s != reference %s",
						pres.Guess.RatString(), want.RatString())
				}
			}

			nres, err := approx.SolveNonPreemptive(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := nres.Schedule.Validate(in); err != nil {
				t.Fatalf("non-preemptive invalid: %v", err)
			}
		})
	}
}
