package core

import (
	"cmp"
	"errors"
	"math"
	"math/big"
	"math/bits"
	"slices"

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
func CheckFeasible(in *Instance) error { return checkFeasible(in, in.NumClasses()) }

// CheckFeasible is the package-level CheckFeasible over the index's class
// count.
func (ix *ClassIndex) CheckFeasible() error { return checkFeasible(ix.In, ix.NumClasses()) }

func checkFeasible(in *Instance, classes int) error {
	cc := int64(classes)
	// Avoid overflow: c*m with m up to 2^62. If m alone covers C, fine.
	if in.M >= cc {
		return nil
	}
	if int64(in.Slots)*in.M < cc {
		return ErrInfeasible
	}
	return nil
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
// P_u/k with 1 ≤ k ≤ m) such that Σ_u ⌈P_u/T⌉ ≤ c·m. This is a valid lower
// bound on the optimal makespan for the splittable and preemptive variants,
// following Lemma 2: only border values P_u/k can be minimal. Borders with
// k > m lie below the area bound Σp_j/m, which LowerBoundR adds anyway.
func SlotLowerBoundSplitR(in *Instance) (rat.R, error) {
	ix := NewClassIndex(in, Splittable)
	if err := ix.CheckFeasible(); err != nil {
		return rat.R{}, err
	}
	return ix.splitThreshold(in.M), nil
}

// border is the class border P_u/k.
type border struct{ pu, k int64 }

// cmpBorders orders borders by value, largest first.
func cmpBorders(a, b border) int {
	// P_a/k_a vs P_b/k_b ⇔ P_a·k_b vs P_b·k_a; loads stay below 2^63 and
	// k below 2^61, so the products fit in 128 bits.
	ahi, alo := bits.Mul64(uint64(a.pu), uint64(b.k))
	bhi, blo := bits.Mul64(uint64(b.pu), uint64(a.k))
	switch {
	case ahi != bhi:
		return -cmp.Compare(ahi, bhi)
	default:
		return -cmp.Compare(alo, blo)
	}
}

// mulDiv returns ⌊a·b/d⌋ and whether the division left a remainder, for
// 0 ≤ a ≤ d and b, d > 0, so the quotient is at most b.
func mulDiv(a, b, d int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, r := bits.Div64(hi, lo, uint64(d))
	return int64(q), r != 0
}

// splitThreshold is the smallest border P_u/k with 1 ≤ k ≤ kmax at which
// the slot count Σ_u ⌈P_u/T⌉ fits the budget c·m, over a feasible
// instance's index: SlotLowerBoundSplitR for kmax = m.
//
// Let C′ count the non-empty classes, P = ΣP_u and B = c·m. The slot count
// S(T) = Σ_u ⌈P_u/T⌉ is non-increasing in T, and P/T ≤ S(T) < P/T + C′, so
// every T below L = P/B is infeasible and every T from H = P/(B−C′) up is
// feasible. Counting borders, S(T) = C′ + #{(u,k) : P_u/k > T} = S(H) +
// #{borders in (T, H]}, and S(H) = Σ_u ⌈P_u/H⌉. So the borders in [L, H],
// about 2C′ of them, sorted once and swept from the top, give S at every
// border of the window; the bound is the smallest feasible one with
// k ≤ kmax. When no border of the window qualifies, it is the smallest
// border with k ≤ kmax at or above H, which is feasible. When B = C′ every class needs its
// own slot and the bound is max P_u.
func (ix *ClassIndex) splitThreshold(kmax int64) rat.R {
	in := ix.In
	var pmax int64
	for _, pu := range ix.Loads {
		pmax = max(pmax, pu)
	}
	budget, cc := totalSlotBudget(in), int64(ix.NonEmpty)
	if pmax == 0 || budget == cc {
		return rat.FromInt(pmax)
	}
	total := ix.Total
	// Class u contributes at most P_u·C′/P + 1 borders, 2C′ in all.
	window := make([]border, 0, 2*cc)
	var sH int64 // S(H)
	top := border{pu: pmax, k: 1}
	for _, pu := range ix.Loads {
		if pu == 0 {
			continue
		}
		// Class u's borders in [L, H] are P_u/k for k in [⌈P_u/H⌉, ⌊P_u/L⌋].
		kH, rem := mulDiv(pu, budget-cc, total) // ⌊P_u/H⌋
		kLo := kH
		if rem {
			kLo++
		}
		sH += kLo
		kHi, _ := mulDiv(pu, budget, total) // ⌊P_u/L⌋
		for k := kLo; k <= kHi; k++ {
			window = append(window, border{pu, k})
		}
		// The smallest allowed border at or above H, a fallback.
		if kH >= 1 {
			if b := (border{pu, min(kH, kmax)}); cmpBorders(b, top) > 0 {
				top = b
			}
		}
	}
	slices.SortFunc(window, cmpBorders)
	best, found := border{}, false
	for i := 0; i < len(window); {
		// S at this border counts the window borders strictly above it.
		if sH+int64(i) > budget {
			break
		}
		j := i
		for j < len(window) && cmpBorders(window[j], window[i]) == 0 {
			if window[j].k <= kmax {
				best, found = window[j], true
			}
			j++
		}
		i = j
	}
	if !found {
		best = top
	}
	return rat.Frac(best.pu, best.k)
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
	// ps is sorted descending, so the jobs above T/2 are a prefix and the
	// jobs in (T/3, T/2] the run after it.
	nb := 0
	for nb < len(ps) && 2*ps[nb] > t {
		nb++
	}
	nm := nb
	for nm < len(ps) && 3*ps[nm] > t {
		nm++
	}
	big_, mid := ps[:nb], ps[nb:nm]
	// Greedy maximum matching: process big jobs from smallest (most head
	// room) to largest and stack the largest still-fitting mid job on each.
	// Iterating capacities in descending order and taking the largest
	// fitting item is the classical exchange-optimal rule, so the number of
	// placed mid jobs is maximum and C²_u stays a valid lower bound. The
	// head room only shrinks, so a mid job too large for one big job fits
	// no later one: a single cursor over mid (sorted descending) finds each
	// largest fit.
	placed, i := 0, 0
	for bi := len(big_) - 1; bi >= 0; bi-- {
		for i < len(mid) && big_[bi]+mid[i] > t {
			i++
		}
		if i == len(mid) {
			break
		}
		placed++
		i++
	}
	ell := int64(len(mid) - placed)
	return max(c1, int64(len(big_))+(ell+1)/2)
}

// SlotLowerBoundNonPreemptive returns the smallest integer T such that
// Σ_u C_u(T) ≤ c·m, with C_u as in Theorem 6. Makespans are integral in the
// non-preemptive case, so the bound is found by integer binary search.
func SlotLowerBoundNonPreemptive(in *Instance) (int64, error) {
	ix := NewClassIndex(in, NonPreemptive)
	if err := ix.CheckFeasible(); err != nil {
		return 0, err
	}
	return ix.slotBoundNonPreemptive(), nil
}

// slotBoundNonPreemptive is SlotLowerBoundNonPreemptive over a feasible
// instance's non-preemptive index.
//
// Each C_u(T) is non-increasing in T: C¹_u is, and when T grows a job
// leaving the big jobs lowers k_u by one and raises ℓ_u by at most two (it
// and its former partner), while every other matched pair keeps fitting.
// C_u(T) ≥ ⌈P_u/T⌉, so the splittable slot threshold bounds T from below;
// from max(3·p_max, ⌈ΣP/(B−C′)⌉) up no job is big or mid and the area term
// fits, and at ΣP every class fits one slot. The search starts at the lower
// end, where non-preemptive instances with small jobs usually stop.
func (ix *ClassIndex) slotBoundNonPreemptive() int64 {
	budget := totalSlotBudget(ix.In)
	feasible := func(t int64) bool {
		var sum int64
		for u, ps := range ix.PByP {
			if len(ps) == 0 {
				continue
			}
			need := NonPreemptiveClassSlots(ps, ix.Loads[u], t)
			if need > budget || sum > budget-need {
				return false
			}
			sum += need
		}
		return true
	}
	lo := max(ix.PMax, ix.splitThreshold(math.MaxInt64).Ceil(), 1)
	hi := ix.Total
	if d := budget - int64(ix.NonEmpty); d > 0 && ix.PMax <= math.MaxInt64/3 {
		q := ix.Total / d
		if ix.Total%d != 0 {
			q++
		}
		hi = min(hi, max(3*ix.PMax, q))
	}
	if lo >= hi || feasible(lo) {
		return lo
	}
	lo++
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LowerBoundR returns a certified lower bound on the optimal makespan of the
// given variant, combining area, p_max and class-slot arguments.
func LowerBoundR(in *Instance, v Variant) (rat.R, error) {
	return NewClassIndex(in, v).LowerBound()
}

// LowerBound is LowerBoundR over the index, for the index's variant.
func (ix *ClassIndex) LowerBound() (rat.R, error) {
	if err := ix.CheckFeasible(); err != nil {
		return rat.R{}, err
	}
	in := ix.In
	best := rat.Frac(ix.Total, in.M)
	if ix.Variant != Splittable {
		best = rat.Max(best, rat.FromInt(ix.PMax))
	}
	switch ix.Variant {
	case Splittable, Preemptive:
		best = rat.Max(best, ix.splitThreshold(in.M))
	case NonPreemptive:
		best = rat.Max(best, rat.FromInt(ix.slotBoundNonPreemptive()))
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
