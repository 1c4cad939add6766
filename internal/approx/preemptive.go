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
	ix := core.NewClassIndex(in, core.Preemptive)
	bound, err := ix.LowerBound()
	if err != nil {
		return nil, err
	}
	p, err := PlanPreemptiveIndexed(ix, bound)
	if err != nil {
		return nil, err
	}
	return p.Realize(), nil
}

// PreemptivePlan is SolvePreemptive before its schedule is built: the
// accepted guess T̂ and the sub-classes in the order round robin deals
// them.
type PreemptivePlan struct {
	ix        *core.ClassIndex
	guess, lb rat.R
	// oneEach is the m ≥ n case: every job runs alone on its own machine.
	oneEach  bool
	subs     subClasses
	makespan rat.R
}

// PlanPreemptive plans SolvePreemptive given the instance's certified
// bound core.LowerBoundR(in, core.Preemptive); any other value voids the
// guarantee.
func PlanPreemptive(in *core.Instance, bound rat.R) (*PreemptivePlan, error) {
	return PlanPreemptiveIndexed(core.NewClassIndex(in, core.Preemptive), bound)
}

// PlanPreemptiveIndexed is PlanPreemptive over the instance's class index.
func PlanPreemptiveIndexed(ix *core.ClassIndex, bound rat.R) (*PreemptivePlan, error) {
	in := ix.In
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ix.CheckFeasible(); err != nil {
		return nil, err
	}
	// With m >= n an optimal schedule places every job on its own machine
	// and achieves p_max exactly, as observed in the proof of Theorem 5.
	if in.M >= int64(in.N()) {
		pm := rat.FromInt(ix.PMax)
		return &PreemptivePlan{ix: ix, guess: pm, lb: pm, oneEach: true, makespan: pm}, nil
	}
	// T̂ = max(LB, border) is the certified bound.
	p := &PreemptivePlan{
		ix: ix, guess: bound,
		lb:   rat.Max(rat.FromInt(ix.PMax), rat.Frac(ix.Total, in.M)),
		subs: newSubClasses(ix, bound),
	}
	// When Algorithm 2 repacks, machine 0's first sub-class is a full
	// window of load T̂, so the shift to T̂ adds nothing there and machine
	// 0 still ends last.
	p.makespan = p.subs.firstMachineLoad(in.M)
	return p, nil
}

// Makespan returns the makespan of the schedule Realize builds.
func (p *PreemptivePlan) Makespan() rat.R { return p.makespan }

// Realize builds the planned schedule.
func (p *PreemptivePlan) Realize() *PreemptiveResult {
	in := p.ix.In
	sched := &core.PreemptiveSchedule{}
	if p.oneEach {
		for j := range in.P {
			sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
				Job: j, Machine: int64(j), Size: rat.FromInt(in.P[j]),
			})
		}
		return &PreemptiveResult{Schedule: sched, Guess: p.guess.Rat(), LB: p.lb.Rat()}
	}
	// Algorithm 2's repack condition: some sub-class has load exactly T̂,
	// which happens exactly when a class with P_u > T̂ was split.
	repack := p.subs.nFull > 0
	bundles, pieces := p.subs.bundles(p.ix)
	sched.Pieces = make([]core.PreemptivePiece, 0, pieces)
	count := int64(len(bundles))
	w := dealWidth(count, in.M)
	for i := int64(0); i < w; i++ {
		var clock rat.R
		for k, row := i, 0; k < count; k, row = k+w, row+1 {
			if repack && row == 1 && clock.Cmp(p.guess) < 0 {
				// Shift everything above the first sub-class to start at T̂.
				clock = p.guess
			}
			for _, pc := range bundles[k].pieces {
				sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
					Job: pc.job, Machine: i, Start: clock, Size: pc.size,
				})
				clock = clock.Add(pc.size)
			}
		}
	}
	return &PreemptiveResult{Schedule: sched, Guess: p.guess.Rat(), LB: p.lb.Rat(), Repacked: repack}
}
