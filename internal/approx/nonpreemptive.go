package approx

import (
	"cmp"
	"slices"

	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// NonPreemptiveResult is the output of SolveNonPreemptive.
type NonPreemptiveResult struct {
	Schedule *core.NonPreemptiveSchedule
	// Guess is the accepted integral makespan guess T̂.
	Guess int64
	// LB is max(p_max, ⌈Σp_j/m⌉).
	LB int64
	// Groups is the number of class groups after the C_u split.
	Groups int
}

// Makespan returns the schedule's makespan.
func (r *NonPreemptiveResult) Makespan(in *core.Instance) int64 { return r.Schedule.Makespan(in) }

// SolveNonPreemptive implements the 7/3-approximation of Theorem 6 in time
// O(n² log² n). It follows the Algorithm 1 framework with three adaptions:
// the lower bound covers p_max, the per-class slot count is the refined
// C_u = max(⌈P_u/T⌉, k_u + ⌈ℓ_u/2⌉) bound, and classes are divided into C_u
// groups with the LPT rule (largest processing time first, onto the
// currently least loaded group) instead of fractional cutting.
func SolveNonPreemptive(in *core.Instance) (*NonPreemptiveResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	ix := core.NewClassIndex(in, core.NonPreemptive)
	bound, err := ix.LowerBound()
	if err != nil {
		return nil, err
	}
	p, err := PlanNonPreemptiveIndexed(ix, bound)
	if err != nil {
		return nil, err
	}
	return p.Realize(), nil
}

// NonPreemptivePlan is SolveNonPreemptive before its schedule is built:
// the accepted guess T̂, the group loads in the order round robin deals
// them (non-ascending, Lemma 3) and each job's group.
type NonPreemptivePlan struct {
	ix        *core.ClassIndex
	guess, lb int64
	loads     []int64
	// pos[j] is the position of job j's group in loads; nil when m ≥ n
	// and every job runs alone on its own machine.
	pos      []int
	makespan int64
}

// PlanNonPreemptive plans SolveNonPreemptive given the instance's certified
// bound core.LowerBoundR(in, core.NonPreemptive); any other value voids the
// guarantee.
func PlanNonPreemptive(in *core.Instance, bound rat.R) (*NonPreemptivePlan, error) {
	return PlanNonPreemptiveIndexed(core.NewClassIndex(in, core.NonPreemptive), bound)
}

// PlanNonPreemptiveIndexed is PlanNonPreemptive over the instance's
// non-preemptive class index.
func PlanNonPreemptiveIndexed(ix *core.ClassIndex, bound rat.R) (*NonPreemptivePlan, error) {
	in := ix.In
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ix.CheckFeasible(); err != nil {
		return nil, err
	}
	// With m >= n each job gets its own machine: makespan p_max = OPT.
	if in.M >= int64(in.N()) {
		pm := ix.PMax
		return &NonPreemptivePlan{ix: ix, guess: pm, lb: pm, makespan: pm}, nil
	}
	lb := max(ix.PMax, core.RatCeilDiv(ix.Total, in.M))
	// T̂ = max(LB, slot bound) = ⌈certified bound⌉: p_max and the slot
	// bound are integers.
	p := &NonPreemptivePlan{ix: ix, guess: bound.Ceil(), lb: lb}
	p.lptGroups()
	w := dealWidth(int64(len(p.loads)), in.M)
	for k := int64(0); k < int64(len(p.loads)); k += w {
		p.makespan += p.loads[k]
	}
	return p, nil
}

// lptGroups divides every class u into C_u(T̂) groups using LPT and
// orders the groups for round robin. By the analysis of Theorem 6, each
// group's load is at most T̂ + T̂/3.
func (p *NonPreemptivePlan) lptGroups() {
	ix := p.ix
	in := ix.In
	group := make([]int, in.N())
	// first[u] is class u's first group; the classes' groups follow each
	// other in class order.
	first := make([]int, len(ix.ByP)+1)
	for u, jobs := range ix.ByP {
		k := 0
		if len(jobs) > 0 {
			// The index's order, largest first with ties in index order,
			// serves the slot count and LPT.
			k = int(min(max(core.NonPreemptiveClassSlots(ix.PByP[u], ix.Loads[u], p.guess), 1), int64(len(jobs))))
		}
		first[u+1] = first[u] + k
	}
	loads := make([]int64, first[len(ix.ByP)])
	for u, jobs := range ix.ByP {
		base := first[u]
		gs := loads[base:first[u+1]]
		for _, j := range jobs {
			best := 0
			for g := 1; g < len(gs); g++ {
				if gs[g] < gs[best] {
					best = g
				}
			}
			gs[best] += in.P[j]
			group[j] = base + best
		}
	}
	// Round robin over the groups in non-ascending load order (Lemma 3),
	// ties in construction order.
	order := make([]int, len(loads))
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(loads[b], loads[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int, len(loads))
	p.loads = make([]int64, len(loads))
	for k, g := range order {
		rank[g] = k
		p.loads[k] = loads[g]
	}
	for j, g := range group {
		group[j] = rank[g]
	}
	p.pos = group
}

// Makespan returns the makespan of the schedule Realize builds.
func (p *NonPreemptivePlan) Makespan() int64 { return p.makespan }

// Realize builds the planned schedule.
func (p *NonPreemptivePlan) Realize() *NonPreemptiveResult {
	n := p.ix.In.N()
	s := &core.NonPreemptiveSchedule{Assign: make([]int64, n)}
	if p.pos == nil {
		for j := range s.Assign {
			s.Assign[j] = int64(j)
		}
		return &NonPreemptiveResult{Schedule: s, Guess: p.guess, LB: p.lb, Groups: n}
	}
	w := dealWidth(int64(len(p.loads)), p.ix.In.M)
	for j, k := range p.pos {
		s.Assign[j] = int64(k) % w
	}
	return &NonPreemptiveResult{Schedule: s, Guess: p.guess, LB: p.lb, Groups: len(p.loads)}
}
