// Package exact computes optimal makespans for small CCS instances. Tests
// divide approximation-algorithm makespans by these optima to check true
// approximation ratios (for larger instances the
// certified lower bounds of internal/core are used instead).
//
// All three variants are NP-hard, so every solver here guards its input
// size and returns ErrTooLarge beyond it.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"ccsched/internal/core"
	"ccsched/internal/lp"
)

// ErrTooLarge reports an instance beyond the exact solvers' limits.
var ErrTooLarge = errors.New("exact: instance too large for exact solving")

// NonPreemptive computes an optimal non-preemptive schedule by depth-first
// branch and bound over jobs in non-increasing size order, with class-slot
// tracking and load-based pruning. Practical up to roughly 20 jobs; the
// limit is enforced at 24 jobs with an error wrapping ErrTooLarge.
func NonPreemptive(in *core.Instance) (*core.NonPreemptiveSchedule, int64, error) {
	return NonPreemptiveCtx(context.Background(), in)
}

// ctxCheckNodes is how many branch-and-bound nodes pass between
// cancellation polls in NonPreemptiveCtx; nodes are cheap (no LP solve), so
// a coarser cadence than internal/ilp keeps the overhead negligible.
const ctxCheckNodes = 4096

// NonPreemptiveCtx is NonPreemptive under a context: cancellation is
// polled every ctxCheckNodes search nodes, so a canceled context aborts the
// exponential search with ctx.Err() instead of running to completion.
func NonPreemptiveCtx(ctx context.Context, in *core.Instance) (*core.NonPreemptiveSchedule, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	if err := core.CheckFeasible(in); err != nil {
		return nil, 0, err
	}
	n := in.N()
	if n > 24 {
		return nil, 0, fmt.Errorf("%w: %d jobs", ErrTooLarge, n)
	}
	m := in.EffectiveMachines(core.NonPreemptive)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return in.P[order[a]] > in.P[order[b]] })
	lbRat, err := core.LowerBound(in, core.NonPreemptive)
	if err != nil {
		return nil, 0, err
	}
	lb := new(big.Int).Div(
		new(big.Int).Add(lbRat.Num(), new(big.Int).Sub(lbRat.Denom(), big.NewInt(1))),
		lbRat.Denom()).Int64()

	loads := make([]int64, m)
	classCount := make([]map[int]int, m)
	for i := range classCount {
		classCount[i] = make(map[int]int)
	}
	assign := make([]int64, n)
	best := make([]int64, n)
	bestVal := int64(math.MaxInt64)
	// Suffix sums for a simple area bound.
	suffix := make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + in.P[order[i]]
	}
	nodes := 0
	aborted := false
	var dfs func(k int, cur int64)
	dfs = func(k int, cur int64) {
		if nodes++; nodes%ctxCheckNodes == 0 && ctx.Err() != nil {
			aborted = true
		}
		if aborted || cur >= bestVal || bestVal == lb {
			return
		}
		if k == n {
			bestVal = cur
			for j := range assign {
				best[j] = assign[j]
			}
			return
		}
		j := order[k]
		// Area bound: remaining load must fit under bestVal-1.
		var room int64
		for i := int64(0); i < m; i++ {
			if r := bestVal - 1 - loads[i]; r > 0 {
				room += r
			}
		}
		if room < suffix[k] {
			return
		}
		seenEmpty := false
		for i := int64(0); i < m; i++ {
			// Symmetry breaking: try at most one empty machine.
			if loads[i] == 0 && len(classCount[i]) == 0 {
				if seenEmpty {
					continue
				}
				seenEmpty = true
			}
			cls := in.Class[j]
			newClass := classCount[i][cls] == 0
			if newClass && len(classCount[i]) >= in.Slots {
				continue
			}
			nl := loads[i] + in.P[j]
			if nl >= bestVal {
				continue
			}
			loads[i] = nl
			classCount[i][cls]++
			assign[j] = i
			nc := cur
			if nl > nc {
				nc = nl
			}
			dfs(k+1, nc)
			classCount[i][cls]--
			if classCount[i][cls] == 0 {
				delete(classCount[i], cls)
			}
			loads[i] -= in.P[j]
		}
	}
	// Seed bestVal with a trivial upper bound so pruning has a start.
	bestVal = in.TotalLoad() + 1
	dfs(0, 0)
	if aborted {
		return nil, 0, ctx.Err()
	}
	if bestVal > in.TotalLoad() {
		return nil, 0, fmt.Errorf("exact: no feasible schedule found")
	}
	return &core.NonPreemptiveSchedule{Assign: best}, bestVal, nil
}

// Splittable computes the optimal splittable makespan by enumerating
// machine slot patterns (which classes may run on which machine, respecting
// the c-slot budget, up to machine symmetry) and minimizing the makespan of
// each pattern with an LP. Practical for C ≤ 5, m ≤ 5; the limit is
// enforced at C ≤ 6, m ≤ 6 with an error wrapping ErrTooLarge.
func Splittable(in *core.Instance) (*big.Rat, error) {
	return SplittableCtx(context.Background(), in)
}

// SplittableCtx is Splittable under a context: cancellation is polled
// before every pattern LP, so a canceled context aborts the enumeration
// with ctx.Err().
func SplittableCtx(ctx context.Context, in *core.Instance) (*big.Rat, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	loads := in.ClassLoads()
	cc := len(loads)
	m := in.M
	if cc > 6 || m > 6 {
		return nil, fmt.Errorf("%w: C=%d m=%d", ErrTooLarge, cc, m)
	}
	// Enumerate per-machine class subsets of size <= c.
	var subsets []int
	for mask := 0; mask < 1<<cc; mask++ {
		if popcount(mask) <= in.Slots {
			subsets = append(subsets, mask)
		}
	}
	best := (*big.Rat)(nil)
	aborted := false
	// Multisets of subsets over m machines (machines are identical).
	pattern := make([]int, m)
	var rec func(mi int64, minIdx int)
	rec = func(mi int64, minIdx int) {
		if aborted {
			return
		}
		if mi == m {
			if ctx.Err() != nil {
				aborted = true
				return
			}
			if val := patternMakespan(loads, pattern, in); val != nil {
				if best == nil || val.Cmp(best) < 0 {
					best = val
				}
			}
			return
		}
		for si := minIdx; si < len(subsets); si++ {
			pattern[mi] = subsets[si]
			rec(mi+1, si)
		}
	}
	rec(0, 0)
	if aborted {
		return nil, ctx.Err()
	}
	if best == nil {
		return nil, fmt.Errorf("exact: no feasible pattern")
	}
	return best, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// patternMakespan minimizes the makespan of a fixed slot pattern with an
// LP: variables f_{u,i} ≥ 0 (allowed only when class u is in machine i's
// subset) and T; Σ_i f_{u,i} = P_u; Σ_u f_{u,i} ≤ T. Returns nil when the
// pattern cannot host all classes.
func patternMakespan(loads []int64, pattern []int, in *core.Instance) *big.Rat {
	cc := len(loads)
	m := len(pattern)
	// Quick reject: every class with positive load needs at least one slot.
	for u := 0; u < cc; u++ {
		if loads[u] == 0 {
			continue
		}
		ok := false
		for _, mask := range pattern {
			if mask&(1<<u) != 0 {
				ok = true
				break
			}
		}
		if !ok {
			return nil
		}
	}
	nv := cc*m + 1
	p := lp.NewProblem(nv)
	tIdx := cc * m
	p.Obj[tIdx] = 1
	for u := 0; u < cc; u++ {
		row := make([]float64, nv)
		for i := 0; i < m; i++ {
			if pattern[i]&(1<<u) != 0 {
				row[u*m+i] = 1
			} else {
				p.Upper[u*m+i] = 0
			}
		}
		p.AddRow(row, lp.EQ, float64(loads[u]))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, nv)
		for u := 0; u < cc; u++ {
			row[u*m+i] = 1
		}
		row[tIdx] = -1
		p.AddRow(row, lp.LE, 0)
	}
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		return nil
	}
	// The optimum is rational with a small denominator; snap the float to
	// the nearest rational with denominator ≤ m·c (makespans are P/k-like),
	// verified conservatively by rounding up at fine precision.
	return approxRat(sol.Obj, int64(m)*int64(in.Slots)*int64(cc)+1)
}

// approxRat snaps v to the best rational with denominator ≤ maxDen
// (Stern–Brocot style via continued fractions), falling back to a fine
// fixed-denominator rounding.
func approxRat(v float64, maxDen int64) *big.Rat {
	if v <= 0 {
		return new(big.Rat)
	}
	bestNum, bestDen := int64(math.Round(v)), int64(1)
	bestErr := math.Abs(v - float64(bestNum))
	for den := int64(2); den <= maxDen; den++ {
		num := int64(math.Round(v * float64(den)))
		if err := math.Abs(v - float64(num)/float64(den)); err < bestErr-1e-12 {
			bestNum, bestDen, bestErr = num, den, err
		}
	}
	if bestErr > 1e-6*math.Max(1, v) {
		// Not a clean small rational: keep a fine approximation.
		return new(big.Rat).SetFloat64(v)
	}
	return big.NewRat(bestNum, bestDen)
}

// PreemptiveBounds returns a certified bracket [lo, hi] for the preemptive
// optimum: the splittable optimum (or lower bound) combined with p_max from
// below, and the non-preemptive optimum from above.
func PreemptiveBounds(in *core.Instance) (lo, hi *big.Rat, err error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if split, serr := Splittable(in); serr == nil {
		lo = split
	} else {
		lo, err = core.LowerBound(in, core.Splittable)
		if err != nil {
			return nil, nil, err
		}
	}
	lo = core.RatMax(lo, core.RatInt(in.PMax()))
	if _, np, nerr := NonPreemptive(in); nerr == nil {
		hi = core.RatInt(np)
	} else {
		return nil, nil, nerr
	}
	return lo, hi, nil
}
