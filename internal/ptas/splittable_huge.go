package ptas

import (
	"context"
	"fmt"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// Theorem 11: splittable PTAS for machine counts exponential in n. The
// paper normalizes optimal solutions (the Figure 3 pair swap plus the
// "at most one non-full exclusive machine per class" swap) so that all but
// O(C²) machines are either idle or completely filled by a single class —
// the trivial configurations. We realize that insight constructively:
//
//  1. peel off, per large class u, full_u machines entirely filled with
//     class u at load exactly T̄ (stored as run-length machine groups whose
//     encoding is polynomial even for astronomical counts),
//  2. cap the residual machine count at a polynomial bound — no
//     well-structured schedule can spread the residual load over more
//     machines, because every module occupies at least δT —
//  3. run the ordinary Theorem 10 N-fold on the residual instance and
//     merge both parts into a compact schedule.
//
// The reserve of (C + 1/δ + 4) machines per class keeps the residual loads
// large so classification (large/small) is unchanged.

// hugeScheme is the Theorem 11 treatment: splitScheme's template probed
// through the peeling above, with compact-only schedules throughout — the
// 2-approximation's included, even when it has an explicit form.
var hugeScheme = scheme[*hugeGuess, *SplitResult]{
	tag: cacheSplitHuge, variant: core.Splittable,
	template: func(ctx context.Context, ix *core.ClassIndex, g int64, opts Options) (guessTemplate[*hugeGuess], error) {
		tm, err := newSplitTemplate(ctx, ix, g, opts.maxConfigs())
		return hugeTemplate{tm}, err
	},
	approx: func(ix *core.ClassIndex, bound rat.R) (approxPlan[*SplitResult], error) {
		return planSplit(ix, bound, func(r *approx.SplitResult) *SplitResult {
			return &SplitResult{Compact: r.Compact}
		})
	},
	makespan: splitMakespan,
	descale:  descaleSplit,
}

// hugeTemplate instantiates the splittable template with trivial machines
// peeled off.
type hugeTemplate struct{ *splitTemplate }

// hugeGuess is a splittable guess whose N-fold covers only the residual
// machines; full[u] machines are filled with class u alone.
type hugeGuess struct {
	*splitGuessCtx
	full []int64
}

func (tm hugeTemplate) instantiate(solveCtx context.Context, t int64) (*hugeGuess, error) {
	ctx, err := tm.splitTemplate.instantiate(solveCtx, t)
	if err != nil {
		return nil, err
	}
	in, g := tm.ix.In, tm.g
	cUnits := int64(in.Slots)
	fullCap := g * g * cUnits // T in δ²T/c units
	cc := int64(len(tm.classes))
	reserve := cc + g + 6
	full := make([]int64, len(tm.ix.Loads))
	var fullTotal int64
	var residUnits int64
	for u, pu := range tm.ix.Loads {
		if pu == 0 || ctx.small[u] {
			residUnits += ctx.pUnits[u]
			continue
		}
		f := ctx.pUnits[u]/fullCap - reserve
		if f < 0 {
			f = 0
		}
		full[u] = f
		fullTotal += f
		ctx.pUnits[u] -= f * fullCap
		residUnits += ctx.pUnits[u]
	}
	if fullTotal >= in.M {
		return nil, fmt.Errorf("ptas: trivial machines %d exceed m", fullTotal)
	}
	// Residual machine bound: modules occupy at least δT = g·c units each,
	// so at most residUnits/(g·c) module slots are usable, plus one machine
	// per small class and slack for idle configurations.
	ctx.m = in.M - fullTotal
	if cap := residUnits/(g*cUnits) + cc + 2; ctx.m > cap {
		ctx.m = cap
	}
	// The N-fold (and the residual machine count) is a deterministic
	// function of (in, g, t), so the verdict caches under the huge-path tag
	// like an ordinary probe; the digest covers the peeled rounded loads and
	// the residual machine count the residual N-fold is actually built from.
	return &hugeGuess{splitGuessCtx: ctx, full: full}, nil
}

// constructSchedule merges the run-length full machines with the residual
// N-fold's explicit schedule into one compact schedule. Every full machine
// carries exactly T.
func (h *hugeGuess) constructSchedule(x [][]int64) (*SplitResult, error) {
	in := h.ix.In
	// Trivial machines are filled to exactly T (not T̄): they live outside
	// the N-fold, so nothing forces the largest module, and a level of T
	// keeps their contribution to the makespan at the guess itself.
	fullLoad := rat.FromInt(h.t)
	// Construct the residual explicit schedule, with job mass reduced by
	// what the full machines absorb. We fill each class's jobs into the
	// full machines first and pass the remainder through the ordinary
	// construction by using a reduced copy of the instance.
	reduced := in.Clone()
	reduced.M = h.m
	sched := &core.CompactSplitSchedule{}
	var makespan rat.R
	for u, f := range h.full {
		if f == 0 {
			continue
		}
		makespan = fullLoad
		// Fill f*T of class u's mass into run-length full machines.
		budget := fullLoad.MulInt(f)
		groups, consumed, err := fillRunLength(in, h.ix.Jobs[u], budget, fullLoad)
		if err != nil {
			return nil, err
		}
		sched.Groups = append(sched.Groups, groups...)
		for j, amt := range consumed {
			// Reduce the job in the residual instance; fully consumed jobs
			// keep a zero remainder and are dropped below.
			rem, ok := rat.FromInt(in.P[j]).Sub(amt).Int64()
			if !ok {
				return nil, fmt.Errorf("ptas: non-integral residual for job %d", j)
			}
			reduced.P[j] = rem
		}
	}
	// Drop zero jobs from the residual instance, remembering the mapping.
	var remap []int
	resid := &core.Instance{M: h.m, Slots: in.Slots}
	for j := range reduced.P {
		if reduced.P[j] > 0 {
			remap = append(remap, j)
			resid.P = append(resid.P, reduced.P[j])
			resid.Class = append(resid.Class, reduced.Class[j])
		}
	}
	// The residual construction reuses the guess (its pUnits were reduced),
	// but job indices must be the residual instance's, and its class index
	// keeps every class of the original.
	rctx := *h.splitGuessCtx
	rctx.ix = core.NewClassIndex(resid, core.Splittable)
	for len(rctx.ix.Loads) < len(h.ix.Loads) {
		rctx.ix.Loads = append(rctx.ix.Loads, 0)
		rctx.ix.Jobs = append(rctx.ix.Jobs, nil)
	}
	explicit, residMakespan, err := rctx.explicitSchedule(x)
	if err != nil {
		return nil, err
	}
	// One single-machine group per residual machine, job indices mapped
	// back through remap.
	groups := core.FromSplit(explicit).Groups
	for gi := range groups {
		for pi := range groups[gi].Pieces {
			groups[gi].Pieces[pi].Job = remap[groups[gi].Pieces[pi].Job]
		}
	}
	sched.Groups = append(sched.Groups, groups...)
	return &SplitResult{Compact: sched, makespan: rat.Max(makespan, residMakespan)}, nil
}

// fillRunLength cuts the given jobs' mass (up to budget) into machines of
// exactly machineLoad each, producing run-length groups: interior windows
// covered by a single job become one group of many machines; windows
// spanning a job boundary become explicit single-machine groups. It returns
// the per-job consumed mass.
func fillRunLength(in *core.Instance, jobs []int, budget, machineLoad rat.R) ([]core.MachineGroup, map[int]rat.R, error) {
	var out []core.MachineGroup
	consumed := make(map[int]rat.R)
	open := []core.GroupPiece{}
	var openLoad rat.R
	left := budget
	for _, j := range jobs {
		if left.Sign() == 0 {
			break
		}
		take := rat.FromInt(in.P[j])
		if take.Cmp(left) > 0 {
			take = left
		}
		consumed[j] = take
		left = left.Sub(take)
		remaining := take
		// Fill the open window first.
		if openLoad.Sign() > 0 {
			room := machineLoad.Sub(openLoad)
			d := remaining
			if d.Cmp(room) > 0 {
				d = room
			}
			open = append(open, core.GroupPiece{Job: j, Size: d})
			openLoad = openLoad.Add(d)
			remaining = remaining.Sub(d)
			if openLoad.Cmp(machineLoad) == 0 {
				out = append(out, core.MachineGroup{Count: 1, Pieces: open})
				open, openLoad = nil, rat.R{}
			}
		}
		// Whole windows of this job alone.
		if cnt := remaining.FloorQuo(machineLoad); cnt > 0 {
			out = append(out, core.MachineGroup{
				Count:  cnt,
				Pieces: []core.GroupPiece{{Job: j, Size: machineLoad}},
			})
			remaining = remaining.Sub(machineLoad.MulInt(cnt))
		}
		if remaining.Sign() > 0 {
			open = append(open, core.GroupPiece{Job: j, Size: remaining})
			openLoad = openLoad.Add(remaining)
		}
	}
	if left.Sign() != 0 {
		return nil, nil, fmt.Errorf("ptas: class mass %s short of the full-machine budget", left.RatString())
	}
	if openLoad.Sign() > 0 {
		return nil, nil, fmt.Errorf("ptas: full-machine budget not an exact multiple of the machine load")
	}
	return out, consumed, nil
}
