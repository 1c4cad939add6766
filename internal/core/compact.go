package core

import (
	"fmt"
	"math/big"

	"ccsched/internal/rat"
)

// The splittable variant explicitly allows the number of machines m to be
// exponential in n, so a schedule cannot always list machines one by one.
// CompactSplitSchedule run-length encodes groups of machines that receive
// the same piece layout, mirroring how Theorem 4 ("Handling an Exponential
// Number of Machines") stores only the number of machines filled with two
// size-T class pieces.

// GroupPiece describes one piece placed on *each* machine of a group: every
// machine in the group receives its own, distinct piece of job Job with the
// given Size. The pieces are distinct job fragments, so a group of k
// machines consumes k*Size units of the job.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type GroupPiece struct {
	Job  int   `json:"job"`
	Size rat.R `json:"size"`
}

// MachineGroup is a run of Count identical machines sharing a piece layout.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type MachineGroup struct {
	Count  int64        `json:"count"`
	Pieces []GroupPiece `json:"pieces"`
}

// Load returns the load of each machine in the group.
func (g *MachineGroup) Load() rat.R {
	var l rat.R
	for _, pc := range g.Pieces {
		l = l.Add(pc.Size)
	}
	return l
}

// CompactSplitSchedule is a splittable schedule in machine-group form. Its
// encoding size is polynomial in n even when m is exponential.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type CompactSplitSchedule struct {
	Groups []MachineGroup `json:"groups"`
}

// MakespanR returns the maximum group load as an exact rational value.
func (s *CompactSplitSchedule) MakespanR() rat.R {
	var mx rat.R
	for i := range s.Groups {
		if l := s.Groups[i].Load(); l.Cmp(mx) > 0 {
			mx = l
		}
	}
	return mx
}

// Makespan returns the maximum group load.
func (s *CompactSplitSchedule) Makespan() *big.Rat { return s.MakespanR().Rat() }

// Machines returns the total number of machines used by all groups.
func (s *CompactSplitSchedule) Machines() int64 {
	var total int64
	for i := range s.Groups {
		total += s.Groups[i].Count
	}
	return total
}

// Validate checks feasibility: group counts positive, total machines within
// m, per-machine class budget respected inside every group, and per-job
// totals (Σ Count*Size over all groups) equal to the processing times.
func (s *CompactSplitSchedule) Validate(in *Instance) error {
	jobTotal := make([]rat.R, in.N())
	touched := make([]bool, in.N())
	var used int64
	for gi := range s.Groups {
		g := &s.Groups[gi]
		if g.Count <= 0 {
			return fmt.Errorf("core: group %d has non-positive machine count %d", gi, g.Count)
		}
		used += g.Count
		set := make(map[int]bool)
		for _, pc := range g.Pieces {
			if pc.Job < 0 || pc.Job >= in.N() {
				return fmt.Errorf("core: group %d references job %d outside [0,%d)", gi, pc.Job, in.N())
			}
			if pc.Size.Sign() <= 0 {
				return fmt.Errorf("core: group %d piece of job %d has non-positive size", gi, pc.Job)
			}
			set[in.Class[pc.Job]] = true
			jobTotal[pc.Job] = jobTotal[pc.Job].Add(pc.Size.MulInt(g.Count))
			touched[pc.Job] = true
		}
		if len(set) > in.Slots {
			return fmt.Errorf("core: group %d hosts %d classes, budget is %d", gi, len(set), in.Slots)
		}
	}
	if used > in.M {
		return fmt.Errorf("core: schedule uses %d machines, instance has %d", used, in.M)
	}
	for j := range jobTotal {
		if !touched[j] || jobTotal[j].Cmp(rat.FromInt(in.P[j])) != 0 {
			got := "0"
			if touched[j] {
				got = jobTotal[j].RatString()
			}
			return fmt.Errorf("core: job %d group pieces sum to %s, want %d", j, got, in.P[j])
		}
	}
	return nil
}

// Expand materializes the compact schedule as an explicit SplitSchedule.
// It refuses to expand more than limit machines to protect callers from
// exponential blow-ups.
func (s *CompactSplitSchedule) Expand(limit int64) (*SplitSchedule, error) {
	if total := s.Machines(); total > limit {
		return nil, fmt.Errorf("core: refusing to expand %d machines (limit %d)", total, limit)
	}
	out := &SplitSchedule{}
	var machine int64
	for gi := range s.Groups {
		g := &s.Groups[gi]
		for k := int64(0); k < g.Count; k++ {
			for _, pc := range g.Pieces {
				out.Pieces = append(out.Pieces, SplitPiece{
					Job:     pc.Job,
					Machine: machine,
					Size:    pc.Size,
				})
			}
			machine++
		}
	}
	out.sortPieces()
	return out, nil
}

// FromSplit converts an explicit schedule into (trivially compact) group
// form, one group per machine in order of first appearance, each group's
// pieces in schedule order. It counts every machine's pieces first and then
// fills one backing array.
func FromSplit(s *SplitSchedule) *CompactSplitSchedule {
	out := &CompactSplitSchedule{}
	if len(s.Pieces) == 0 {
		return out
	}
	// group[i] is piece i's group; counts[g] the pieces of group g.
	group := make([]int32, len(s.Pieces))
	var counts []int
	minIdx, maxIdx := s.Pieces[0].Machine, s.Pieces[0].Machine
	for i := range s.Pieces {
		minIdx, maxIdx = min(minIdx, s.Pieces[i].Machine), max(maxIdx, s.Pieces[i].Machine)
	}
	if minIdx >= 0 && maxIdx < denseLimit(len(s.Pieces)) {
		groupOf := make([]int32, maxIdx+1)
		for i := range s.Pieces {
			g := &groupOf[s.Pieces[i].Machine]
			if *g == 0 {
				counts = append(counts, 0)
				*g = int32(len(counts))
			}
			group[i] = *g - 1
			counts[*g-1]++
		}
	} else {
		groupOf := make(map[int64]int32)
		for i := range s.Pieces {
			g, ok := groupOf[s.Pieces[i].Machine]
			if !ok {
				g = int32(len(counts))
				groupOf[s.Pieces[i].Machine] = g
				counts = append(counts, 0)
			}
			group[i] = g
			counts[g]++
		}
	}
	backing := make([]GroupPiece, len(s.Pieces))
	out.Groups = make([]MachineGroup, len(counts))
	var at int
	for g, n := range counts {
		out.Groups[g] = MachineGroup{Count: 1, Pieces: backing[at : at : at+n]}
		at += n
	}
	for i := range s.Pieces {
		grp := &out.Groups[group[i]]
		grp.Pieces = append(grp.Pieces, GroupPiece{Job: s.Pieces[i].Job, Size: s.Pieces[i].Size})
	}
	return out
}
