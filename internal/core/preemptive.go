package core

import (
	"fmt"
	"math/big"
	"sort"

	"ccsched/internal/rat"
)

// PreemptivePiece is one fragment of a job in a preemptive schedule. Unlike
// the splittable case, a piece carries an explicit start time, because
// pieces of the same job must not overlap in time.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type PreemptivePiece struct {
	Job     int   `json:"job"`
	Machine int64 `json:"machine"`
	Start   rat.R `json:"start"`
	Size    rat.R `json:"size"`
}

// End returns Start+Size.
func (p *PreemptivePiece) End() rat.R { return p.Start.Add(p.Size) }

// PreemptiveSchedule is a schedule σ = (π, λ, ξ, µ) for the preemptive
// variant: jobs may be cut, but two pieces of the same job — and two pieces
// sharing a machine — must occupy disjoint time intervals.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type PreemptiveSchedule struct {
	Pieces []PreemptivePiece `json:"pieces"`
}

// MakespanR returns the largest piece end time as an exact rational value.
func (s *PreemptiveSchedule) MakespanR() rat.R {
	var mx rat.R
	for i := range s.Pieces {
		if e := s.Pieces[i].End(); e.Cmp(mx) > 0 {
			mx = e
		}
	}
	return mx
}

// Makespan returns the largest piece end time.
func (s *PreemptiveSchedule) Makespan() *big.Rat { return s.MakespanR().Rat() }

// MachineLoads returns the summed processing per non-empty machine.
func (s *PreemptiveSchedule) MachineLoads() map[int64]*big.Rat {
	acc := make(map[int64]rat.R, len(s.Pieces))
	for i := range s.Pieces {
		pc := &s.Pieces[i]
		acc[pc.Machine] = acc[pc.Machine].Add(pc.Size)
	}
	loads := make(map[int64]*big.Rat, len(acc))
	for m, l := range acc {
		loads[m] = l.Rat()
	}
	return loads
}

type interval struct {
	start, end rat.R
	piece      int
}

func overlapInSorted(ivs []interval) (int, int, bool) {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start.Cmp(ivs[b].start) < 0 })
	for k := 1; k < len(ivs); k++ {
		if ivs[k-1].end.Cmp(ivs[k].start) > 0 {
			return ivs[k-1].piece, ivs[k].piece, true
		}
	}
	return 0, 0, false
}

// Validate checks feasibility for the preemptive variant: positive sizes,
// non-negative starts, machines within range, per-job sizes summing to p_j,
// at most c classes per machine, no two pieces overlapping on one machine,
// and no two pieces of the same job overlapping in time anywhere.
func (s *PreemptiveSchedule) Validate(in *Instance) error {
	jobTotal := make([]rat.R, in.N())
	touched := make([]bool, in.N())
	byMachine := make(map[int64][]interval)
	byJob := make(map[int][]interval)
	classes := make(map[int64]map[int]bool)
	for k := range s.Pieces {
		pc := &s.Pieces[k]
		if pc.Job < 0 || pc.Job >= in.N() {
			return fmt.Errorf("core: piece %d references job %d outside [0,%d)", k, pc.Job, in.N())
		}
		if pc.Machine < 0 || pc.Machine >= in.M {
			return fmt.Errorf("core: piece %d on machine %d outside [0,%d)", k, pc.Machine, in.M)
		}
		if pc.Size.Sign() <= 0 {
			return fmt.Errorf("core: piece %d of job %d has non-positive size", k, pc.Job)
		}
		if pc.Start.Sign() < 0 {
			return fmt.Errorf("core: piece %d of job %d starts before time zero", k, pc.Job)
		}
		jobTotal[pc.Job] = jobTotal[pc.Job].Add(pc.Size)
		touched[pc.Job] = true
		iv := interval{start: pc.Start, end: pc.End(), piece: k}
		byMachine[pc.Machine] = append(byMachine[pc.Machine], iv)
		byJob[pc.Job] = append(byJob[pc.Job], iv)
		set := classes[pc.Machine]
		if set == nil {
			set = make(map[int]bool)
			classes[pc.Machine] = set
		}
		set[in.Class[pc.Job]] = true
		if len(set) > in.Slots {
			return fmt.Errorf("core: machine %d hosts %d classes, budget is %d", pc.Machine, len(set), in.Slots)
		}
	}
	for j := range jobTotal {
		if !touched[j] || jobTotal[j].Cmp(rat.FromInt(in.P[j])) != 0 {
			got := "0"
			if touched[j] {
				got = jobTotal[j].RatString()
			}
			return fmt.Errorf("core: job %d pieces sum to %s, want %d", j, got, in.P[j])
		}
	}
	for i, ivs := range byMachine {
		if a, b, bad := overlapInSorted(ivs); bad {
			return fmt.Errorf("core: pieces %d and %d overlap on machine %d", a, b, i)
		}
	}
	for j, ivs := range byJob {
		if a, b, bad := overlapInSorted(ivs); bad {
			return fmt.Errorf("core: pieces %d and %d of job %d run in parallel", a, b, j)
		}
	}
	return nil
}

// PieceCount returns the number of pieces in the schedule.
func (s *PreemptiveSchedule) PieceCount() int { return len(s.Pieces) }

// UsedMachines returns the number of distinct machines receiving load.
func (s *PreemptiveSchedule) UsedMachines() int64 {
	seen := make(map[int64]bool)
	for i := range s.Pieces {
		seen[s.Pieces[i].Machine] = true
	}
	return int64(len(seen))
}
