package core

import (
	"fmt"
	"math/big"
	"sort"

	"ccsched/internal/rat"
)

// SplitPiece is one fragment of a job in a splittable schedule. Size is
// measured in processing-time units (not as a fraction of the job).
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type SplitPiece struct {
	Job     int   `json:"job"`
	Machine int64 `json:"machine"`
	Size    rat.R `json:"size"`
}

// SplitSchedule is a schedule for the splittable variant: pieces of a job
// may be placed on any machines and may run concurrently; a machine's load
// is simply the sum of its piece sizes.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type SplitSchedule struct {
	Pieces []SplitPiece `json:"pieces"`
}

// denseLimit decides whether machine indices are dense enough for slice
// accumulation: with k pieces at most k distinct machines receive load, so a
// small multiple of k bounds the wasted slots.
func denseLimit(pieces int) int64 { return int64(4*pieces) + 64 }

// MakespanR returns the maximum machine load as an exact rational value.
// Loads are accumulated into a slice keyed by machine index (falling back to
// a map only for sparse index sets), allocation-free per piece.
func (s *SplitSchedule) MakespanR() rat.R {
	var maxIdx int64 = -1
	for i := range s.Pieces {
		if m := s.Pieces[i].Machine; m > maxIdx {
			maxIdx = m
		}
	}
	var mx rat.R
	if maxIdx < denseLimit(len(s.Pieces)) {
		loads := make([]rat.R, maxIdx+1)
		for i := range s.Pieces {
			pc := &s.Pieces[i]
			l := loads[pc.Machine].Add(pc.Size)
			loads[pc.Machine] = l
			if l.Cmp(mx) > 0 {
				mx = l
			}
		}
		return mx
	}
	loads := make(map[int64]rat.R, len(s.Pieces))
	for i := range s.Pieces {
		pc := &s.Pieces[i]
		l := loads[pc.Machine].Add(pc.Size)
		loads[pc.Machine] = l
		if l.Cmp(mx) > 0 {
			mx = l
		}
	}
	return mx
}

// Makespan returns the maximum machine load.
func (s *SplitSchedule) Makespan() *big.Rat { return s.MakespanR().Rat() }

// MachineLoads returns the load of every non-empty machine.
func (s *SplitSchedule) MachineLoads() map[int64]*big.Rat {
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

// Validate checks feasibility for the splittable variant: positive piece
// sizes, machines within range, per-job piece sizes summing exactly to the
// job's processing time, and at most c distinct classes per machine.
func (s *SplitSchedule) Validate(in *Instance) error {
	jobTotal := make([]rat.R, in.N())
	touched := make([]bool, in.N())
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
		jobTotal[pc.Job] = jobTotal[pc.Job].Add(pc.Size)
		touched[pc.Job] = true
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
	return nil
}

// PieceCount returns the number of pieces; the paper guarantees all
// algorithms emit schedules with polynomially many pieces.
func (s *SplitSchedule) PieceCount() int { return len(s.Pieces) }

// UsedMachines returns the number of distinct machines receiving load.
func (s *SplitSchedule) UsedMachines() int64 {
	seen := make(map[int64]bool)
	for _, pc := range s.Pieces {
		seen[pc.Machine] = true
	}
	return int64(len(seen))
}

// sortPieces orders pieces by (machine, job) for deterministic output.
func (s *SplitSchedule) sortPieces() {
	sort.Slice(s.Pieces, func(a, b int) bool {
		if s.Pieces[a].Machine != s.Pieces[b].Machine {
			return s.Pieces[a].Machine < s.Pieces[b].Machine
		}
		return s.Pieces[a].Job < s.Pieces[b].Job
	})
}
