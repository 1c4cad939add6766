package core

import (
	"errors"
	"math/big"
	"sort"

	"ccsched/internal/rat"
)

// Certified lower bounds on the optimal makespan. Every approximation ratio
// the tests, benchmarks and Result gaps report divides a schedule's
// makespan by one of these bounds, so a measured ratio always upper-bounds
// the true ratio.
//
// Three bound families are combined, following the paper's own arguments:
//
//   - area:  Σ p_j / m  (equal distribution; Lemma 2's lower bound LB),
//   - p_max: largest job (preemptive and non-preemptive only — a job must
//     run sequentially),
//   - class slots: any schedule with makespan T must reserve, per class u,
//     at least Slots_u(T) class slots, and only c·m exist in total. The
//     smallest T for which the counts fit is a valid lower bound. For the
//     splittable and preemptive variants Slots_u(T) = ⌈P_u/T⌉; the
//     non-preemptive variant additionally counts machines forced by jobs
//     larger than T/2 and T/3 (the paper's C²_u = k_u + ⌈ℓ_u/2⌉).

// ErrInfeasible reports an instance that admits no feasible schedule at any
// makespan: more classes than total class slots.
var ErrInfeasible = errors.New("core: more classes than total class slots (C > c*m)")

// CheckFeasible returns ErrInfeasible when C > c*m, i.e. no schedule of any
// makespan can host all classes.
func CheckFeasible(in *Instance) error {
	cc := int64(in.NumClasses())
	// Avoid overflow: c*m with m up to 2^62. If m alone covers C, fine.
	if in.M >= cc {
		return nil
	}
	if int64(in.Slots)*in.M < cc {
		return ErrInfeasible
	}
	return nil
}

// totalSlotsSplit returns Σ_u ⌈P_u/T⌉ but stops early once the sum exceeds
// limit (values above the limit are all equivalent for feasibility tests).
// The per-class count ⌈P_u/T⌉ runs on rat's 128-bit division fast path, so
// the whole sweep is allocation-free.
func totalSlotsSplit(loads []int64, t rat.R, limit int64) int64 {
	var sum int64
	for _, pu := range loads {
		need := rat.CeilQuoInt(pu, t)
		if need > limit || sum > limit-need {
			return limit + 1
		}
		sum += need
	}
	return sum
}

// totalSlotBudget returns c*m, saturating at a huge sentinel on overflow.
// Overstating the budget only weakens (never invalidates) the resulting
// lower bound, because a larger budget makes more makespan guesses feasible.
func totalSlotBudget(in *Instance) int64 {
	const sentinel = int64(1) << 60
	c := int64(in.Slots)
	if in.M > sentinel/c {
		return sentinel
	}
	return c * in.M
}

// SlotLowerBoundSplitR returns the smallest rational T (a "border" value
// P_u/k) such that Σ_u ⌈P_u/T⌉ ≤ c·m. This is a valid lower bound on the
// optimal makespan for the splittable and preemptive variants, following
// Lemma 2: only border values P_u/k can be minimal, and per class the count
// is monotone along its borders.
func SlotLowerBoundSplitR(in *Instance) (rat.R, error) {
	if err := CheckFeasible(in); err != nil {
		return rat.R{}, err
	}
	loads := in.ClassLoads()
	budget := totalSlotBudget(in)
	// All classes fit in one slot each at T = max P_u, which is feasible
	// because C <= c*m was checked above.
	var best rat.R
	for _, pu := range loads {
		if cand := rat.FromInt(pu); cand.Cmp(best) > 0 {
			best = cand
		}
	}
	if best.Sign() == 0 {
		return best, nil
	}
	// Per class, binary search the smallest feasible border P_u/k for
	// k in 1..kmax. Increasing k shrinks T = P_u/k and can only increase
	// the total slot count, so per-class feasibility is monotone in k.
	// Beyond k = n+m the counts can never fit a feasible budget (at the
	// optimum, Σ⌈P_u/T⌉ ≤ ΣP_u/T + C ≤ m + n since T ≥ ΣP/m).
	kmax := in.M
	if n := int64(in.N()) + in.M; kmax > n || kmax < 0 {
		kmax = n
	}
	for _, pu := range loads {
		if pu == 0 {
			continue
		}
		if totalSlotsSplit(loads, rat.FromInt(pu), budget) > budget {
			continue // even this class's largest border is infeasible
		}
		lo, hi := int64(1), kmax
		for lo < hi {
			mid := lo + (hi-lo+1)/2 // try larger k (smaller T)
			if totalSlotsSplit(loads, rat.Frac(pu, mid), budget) <= budget {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if t := rat.Frac(pu, lo); t.Cmp(best) < 0 {
			best = t
		}
	}
	return best, nil
}

// SlotLowerBoundSplit is SlotLowerBoundSplitR at the *big.Rat API boundary.
func SlotLowerBoundSplit(in *Instance) (*big.Rat, error) {
	r, err := SlotLowerBoundSplitR(in)
	if err != nil {
		return nil, err
	}
	return r.Rat(), nil
}

// NonPreemptiveClassSlots computes the paper's C_u = max(C¹_u, C²_u) lower
// bound on class slots needed by class u under makespan T:
// C¹_u = ⌈P_u/T⌉ (area) and C²_u = k_u + ⌈ℓ_u/2⌉ where k_u counts jobs with
// p_j > T/2, and ℓ_u counts jobs with T/3 < p_j ≤ T/2 left after greedily
// stacking the largest fitting one on each p_j > T/2 job. ps must hold the
// class's processing times sorted in non-ascending order; pu is their sum.
func NonPreemptiveClassSlots(ps []int64, pu int64, t int64) int64 {
	c1 := RatCeilDiv(pu, t)
	// Partition by thresholds. ps must be sorted descending.
	var big_, mid []int64
	for _, p := range ps {
		switch {
		case 2*p > t:
			big_ = append(big_, p)
		case 3*p > t:
			mid = append(mid, p)
		}
	}
	// Greedy maximum matching: process big jobs from smallest (most head
	// room) to largest and stack the largest still-fitting mid job on each.
	// Iterating capacities in descending order and taking the largest
	// fitting item is the classical exchange-optimal rule, so the number of
	// placed mid jobs is maximum and C²_u stays a valid lower bound.
	used := make([]bool, len(mid))
	for bi := len(big_) - 1; bi >= 0; bi-- {
		b := big_[bi]
		for i := range mid {
			if !used[i] && b+mid[i] <= t {
				used[i] = true
				break // mid sorted descending, first fit is largest fit
			}
		}
	}
	var ell int64
	for i := range mid {
		if !used[i] {
			ell++
		}
	}
	c2 := int64(len(big_)) + (ell+1)/2
	if c2 > c1 {
		return c2
	}
	return c1
}

// SlotLowerBoundNonPreemptive returns the smallest integer T such that
// Σ_u C_u(T) ≤ c·m, with C_u as in Theorem 6. Makespans are integral in the
// non-preemptive case, so the bound is found by integer binary search.
func SlotLowerBoundNonPreemptive(in *Instance) (int64, error) {
	if err := CheckFeasible(in); err != nil {
		return 0, err
	}
	byClass := in.ClassJobs()
	sorted := make([][]int64, len(byClass))
	loads := in.ClassLoads()
	for u, jobs := range byClass {
		ps := make([]int64, len(jobs))
		for i, j := range jobs {
			ps[i] = in.P[j]
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a] > ps[b] })
		sorted[u] = ps
	}
	budget := totalSlotBudget(in)
	total := func(t int64) int64 {
		var sum int64
		for u := range sorted {
			if len(sorted[u]) == 0 {
				continue
			}
			need := NonPreemptiveClassSlots(sorted[u], loads[u], t)
			if need > budget || sum > budget-need {
				return budget + 1
			}
			sum += need
		}
		return sum
	}
	lo, hi := in.PMax(), in.TotalLoad() // hi always feasible: one slot per class
	if lo < 1 {
		lo = 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if total(mid) <= budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// LowerBoundR returns a certified lower bound on the optimal makespan of the
// given variant, combining area, p_max and class-slot arguments.
func LowerBoundR(in *Instance, v Variant) (rat.R, error) {
	if err := CheckFeasible(in); err != nil {
		return rat.R{}, err
	}
	best := rat.Frac(in.TotalLoad(), in.M)
	if v != Splittable {
		best = rat.Max(best, rat.FromInt(in.PMax()))
	}
	switch v {
	case Splittable, Preemptive:
		slot, err := SlotLowerBoundSplitR(in)
		if err != nil {
			return rat.R{}, err
		}
		best = rat.Max(best, slot)
	case NonPreemptive:
		slot, err := SlotLowerBoundNonPreemptive(in)
		if err != nil {
			return rat.R{}, err
		}
		best = rat.Max(best, rat.FromInt(slot))
	}
	return best, nil
}

// LowerBound is LowerBoundR at the *big.Rat API boundary.
func LowerBound(in *Instance, v Variant) (*big.Rat, error) {
	r, err := LowerBoundR(in, v)
	if err != nil {
		return nil, err
	}
	return r.Rat(), nil
}
