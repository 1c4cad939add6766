package approx

import (
	"sort"

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
	bound, err := core.LowerBoundR(in, core.NonPreemptive)
	if err != nil {
		return nil, err
	}
	return SolveNonPreemptiveLB(in, bound)
}

// SolveNonPreemptiveLB is SolveNonPreemptive given the instance's certified
// bound core.LowerBoundR(in, core.NonPreemptive), for callers that
// computed it already; any other value voids the guarantee.
func SolveNonPreemptiveLB(in *core.Instance, bound rat.R) (*NonPreemptiveResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	n := in.N()
	// With m >= n each job gets its own machine: makespan p_max = OPT.
	if in.M >= int64(n) {
		s := &core.NonPreemptiveSchedule{Assign: make([]int64, n)}
		for j := range s.Assign {
			s.Assign[j] = int64(j)
		}
		return &NonPreemptiveResult{Schedule: s, Guess: in.PMax(), LB: in.PMax(), Groups: n}, nil
	}
	lb := in.PMax()
	if area := core.RatCeilDiv(in.TotalLoad(), in.M); area > lb {
		lb = area
	}
	// T̂ = max(LB, slot bound) = ⌈certified bound⌉: p_max and the slot
	// bound are integers.
	guess := bound.Ceil()
	groups := splitClassesLPT(in, guess)
	// Round robin over the groups in non-ascending load order (Lemma 3).
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].load > groups[b].load })
	perMachine := roundRobin(len(groups), in.M)
	s := &core.NonPreemptiveSchedule{Assign: make([]int64, n)}
	for i, idxs := range perMachine {
		for _, gi := range idxs {
			for _, j := range groups[gi].jobs {
				s.Assign[j] = int64(i)
			}
		}
	}
	return &NonPreemptiveResult{Schedule: s, Guess: guess, LB: lb, Groups: len(groups)}, nil
}

// jobGroup is one of the C_u sub-classes of a class: whole jobs only.
type jobGroup struct {
	class int
	load  int64
	jobs  []int
}

// splitClassesLPT divides every class u into C_u(T) groups using LPT. By the
// analysis of Theorem 6, each group's load is at most T + T/3 when T is a
// feasible guess.
func splitClassesLPT(in *core.Instance, t int64) []jobGroup {
	byClass := in.ClassJobs()
	var out []jobGroup
	for u, jobs := range byClass {
		if len(jobs) == 0 {
			continue
		}
		ps := make([]int64, len(jobs))
		var pu int64
		for i, j := range jobs {
			ps[i] = in.P[j]
			pu += ps[i]
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a] > ps[b] })
		k := core.NonPreemptiveClassSlots(ps, pu, t)
		if k < 1 {
			k = 1
		}
		if k > int64(len(jobs)) {
			k = int64(len(jobs))
		}
		// LPT over the class's jobs into k groups.
		ordered := append([]int(nil), jobs...)
		sort.SliceStable(ordered, func(a, b int) bool { return in.P[ordered[a]] > in.P[ordered[b]] })
		gs := make([]jobGroup, k)
		for i := range gs {
			gs[i].class = u
		}
		for _, j := range ordered {
			best := 0
			for g := 1; g < len(gs); g++ {
				if gs[g].load < gs[best].load {
					best = g
				}
			}
			gs[best].jobs = append(gs[best].jobs, j)
			gs[best].load += in.P[j]
		}
		out = append(out, gs...)
	}
	return out
}
