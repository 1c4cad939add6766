package core

import (
	"sort"

	"ccsched/internal/rat"
)

// The routines below are the implementations the class index and the
// two-pass FromSplit replaced, kept as the oracles the current code is held
// to, value for value.

// fromSplitOracle is FromSplit built with a per-machine map: one group per
// machine in first-appearance order, each group's pieces in schedule order.
func fromSplitOracle(s *SplitSchedule) *CompactSplitSchedule {
	perMachine := make(map[int64][]GroupPiece)
	var order []int64
	for _, pc := range s.Pieces {
		if _, ok := perMachine[pc.Machine]; !ok {
			order = append(order, pc.Machine)
		}
		perMachine[pc.Machine] = append(perMachine[pc.Machine], GroupPiece{Job: pc.Job, Size: pc.Size})
	}
	out := &CompactSplitSchedule{}
	for _, i := range order {
		out.Groups = append(out.Groups, MachineGroup{Count: 1, Pieces: perMachine[i]})
	}
	return out
}

// totalSlotsSplit returns Σ_u ⌈P_u/T⌉ but stops early once the sum exceeds
// limit.
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

// slotLowerBoundSplitOracle is the unpruned per-class border search: every
// class's binary search runs over all of its borders 1..kmax, and the bound
// is the smallest feasible border found.
func slotLowerBoundSplitOracle(in *Instance) rat.R {
	loads := in.ClassLoads()
	budget := totalSlotBudget(in)
	var best rat.R
	for _, pu := range loads {
		best = rat.Max(best, rat.FromInt(pu))
	}
	kmax := in.M
	if n := int64(in.N()) + in.M; kmax > n || kmax < 0 {
		kmax = n
	}
	for _, pu := range loads {
		if pu == 0 || totalSlotsSplit(loads, rat.FromInt(pu), budget) > budget {
			continue
		}
		lo, hi := int64(1), kmax
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if totalSlotsSplit(loads, rat.Frac(pu, mid), budget) <= budget {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		best = rat.Min(best, rat.Frac(pu, lo))
	}
	return best
}

// slotLowerBoundNonPreemptiveOracle is the non-preemptive slot bound built
// from fresh per-class lists, each sorted on its own, and an integer binary
// search over [p_max, Σp_j].
func slotLowerBoundNonPreemptiveOracle(in *Instance) (int64, error) {
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
	lo, hi := in.PMax(), in.TotalLoad()
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
