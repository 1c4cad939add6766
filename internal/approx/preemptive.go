package approx

import (
	"math/big"

	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// PreemptiveResult is the output of SolvePreemptive.
type PreemptiveResult struct {
	Schedule *core.PreemptiveSchedule
	// Guess is the accepted makespan guess T̂ = max(p_max, LB, border).
	Guess *big.Rat
	// LB is max(p_max, Σp_j/m).
	LB *big.Rat
	// Repacked reports whether the Algorithm 2 shift was applied.
	Repacked bool
}

// Makespan returns the schedule's makespan.
func (r *PreemptiveResult) Makespan() *big.Rat { return r.Schedule.Makespan() }

// SolvePreemptive runs Algorithm 1 with the Algorithm 2 extension and
// returns a feasible preemptive schedule with makespan at most 2·OPT in
// time O(n² log n) (Theorem 5).
//
// Two adaptions distinguish it from the splittable case: the lower bound
// additionally covers p_max (a job cannot run in parallel with itself), and
// when a class was split — i.e. some sub-class has load exactly T̂ — every
// machine's schedule above its first sub-class is shifted to start at time
// T̂, which separates the two pieces of any cut job.
func SolvePreemptive(in *core.Instance) (*PreemptiveResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	bound, err := core.LowerBoundR(in, core.Preemptive)
	if err != nil {
		return nil, err
	}
	return SolvePreemptiveLB(in, bound)
}

// SolvePreemptiveLB is SolvePreemptive given the instance's certified bound
// core.LowerBoundR(in, core.Preemptive), for callers that computed it
// already; any other value voids the guarantee.
func SolvePreemptiveLB(in *core.Instance, bound rat.R) (*PreemptiveResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	// With m >= n an optimal schedule places every job on its own machine
	// and achieves p_max exactly, as observed in the proof of Theorem 5.
	if in.M >= int64(in.N()) {
		sched := &core.PreemptiveSchedule{}
		for j := range in.P {
			sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
				Job: j, Machine: int64(j), Size: rat.FromInt(in.P[j]),
			})
		}
		pm := core.RatInt(in.PMax())
		return &PreemptiveResult{Schedule: sched, Guess: pm, LB: new(big.Rat).Set(pm)}, nil
	}
	// T̂ = max(LB, border) is the certified bound.
	lb := rat.Max(rat.FromInt(in.PMax()), rat.Frac(in.TotalLoad(), in.M))
	guess := bound
	bundles := cutClasses(in, guess)
	sortBundles(bundles)
	// Algorithm 2's repack condition: some sub-class has load exactly T̂,
	// which happens exactly when a class with P_u > T̂ was split.
	repack := false
	for i := range bundles {
		if bundles[i].load.Cmp(guess) == 0 {
			repack = true
			break
		}
	}
	perMachine := roundRobin(len(bundles), in.M)
	sched := &core.PreemptiveSchedule{}
	for i, idxs := range perMachine {
		var clock rat.R
		for row, bi := range idxs {
			if repack && row == 1 && clock.Cmp(guess) < 0 {
				// Shift everything above the first sub-class to start at T̂.
				clock = guess
			}
			for _, pc := range bundles[bi].pieces {
				sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
					Job: pc.job, Machine: int64(i), Start: clock, Size: pc.size,
				})
				clock = clock.Add(pc.size)
			}
		}
	}
	return &PreemptiveResult{Schedule: sched, Guess: guess.Rat(), LB: lb.Rat(), Repacked: repack}, nil
}
