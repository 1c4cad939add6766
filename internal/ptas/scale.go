package ptas

import (
	"math/big"

	"ccsched/internal/core"
)

// The PTAS guess search walks integral makespans, but the splittable and
// preemptive optima are rational and can be far below 1 (e.g. splittable
// instances with exponentially many machines, where OPT ≈ Σp/m). Scaling
// all processing times by a power of two S until the certified lower bound
// reaches 4g² makes the integral grid (1+δ)-fine relative to OPT; schedules
// are scaled back by exact rational division, so feasibility is unaffected.

// scaleFactor returns the power-of-two S ≥ 1 with lb·S ≥ target, capped so
// that pmax·S stays far from int64 overflow.
func scaleFactor(lb *big.Rat, pmax int64, target int64) int64 {
	s := int64(1)
	limit := (int64(1) << 55) / pmax
	goal := new(big.Rat).SetInt64(target)
	for s < limit {
		scaled := new(big.Rat).Mul(lb, new(big.Rat).SetInt64(s))
		if scaled.Cmp(goal) >= 0 {
			break
		}
		s <<= 1
	}
	return s
}

// descaleSplit rescales a split result back to the original instance.
// Compact may share piece values with Schedule (core.FromSplit copies the
// rat.R values, which are immutable), so it is rebuilt from the descaled
// explicit schedule when present.
func descaleSplit(res *SplitResult, s int64) {
	if res.Schedule != nil {
		for i := range res.Schedule.Pieces {
			res.Schedule.Pieces[i].Size = res.Schedule.Pieces[i].Size.DivInt(s)
		}
		res.Compact = core.FromSplit(res.Schedule)
		return
	}
	for gi := range res.Compact.Groups {
		for pi := range res.Compact.Groups[gi].Pieces {
			res.Compact.Groups[gi].Pieces[pi].Size = res.Compact.Groups[gi].Pieces[pi].Size.DivInt(s)
		}
	}
}

// descalePreemptive rescales a preemptive schedule.
func descalePreemptive(sched *core.PreemptiveSchedule, s int64) {
	for i := range sched.Pieces {
		sched.Pieces[i].Start = sched.Pieces[i].Start.DivInt(s)
		sched.Pieces[i].Size = sched.Pieces[i].Size.DivInt(s)
	}
}
