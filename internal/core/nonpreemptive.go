package core

import "fmt"

// NonPreemptiveSchedule assigns every job to exactly one machine.
// Its JSON tags are repeated in json.go's MarshalJSON, pinned to them by
// TestScheduleJSONMatchesReflection.
type NonPreemptiveSchedule struct {
	// Assign[j] is the machine executing job j.
	Assign []int64 `json:"assign"`
}

// Makespan returns the maximum machine load under the instance's processing
// times.
func (s *NonPreemptiveSchedule) Makespan(in *Instance) int64 {
	loads := make(map[int64]int64, len(s.Assign))
	var mx int64
	for j, i := range s.Assign {
		loads[i] += in.P[j]
		if loads[i] > mx {
			mx = loads[i]
		}
	}
	return mx
}

// MachineLoads returns the load of every non-empty machine.
func (s *NonPreemptiveSchedule) MachineLoads(in *Instance) map[int64]int64 {
	loads := make(map[int64]int64)
	for j, i := range s.Assign {
		loads[i] += in.P[j]
	}
	return loads
}

// Validate checks that the schedule is feasible for the instance: every job
// is placed on an existing machine and no machine hosts more than c distinct
// classes.
func (s *NonPreemptiveSchedule) Validate(in *Instance) error {
	if len(s.Assign) != in.N() {
		return fmt.Errorf("core: schedule covers %d jobs, instance has %d", len(s.Assign), in.N())
	}
	classes := make(map[int64]map[int]bool)
	for j, i := range s.Assign {
		if i < 0 || i >= in.M {
			return fmt.Errorf("core: job %d assigned to machine %d outside [0,%d)", j, i, in.M)
		}
		set := classes[i]
		if set == nil {
			set = make(map[int]bool)
			classes[i] = set
		}
		set[in.Class[j]] = true
		if len(set) > in.Slots {
			return fmt.Errorf("core: machine %d hosts %d classes, budget is %d", i, len(set), in.Slots)
		}
	}
	return nil
}

// UsedMachines returns the number of distinct machines receiving jobs.
func (s *NonPreemptiveSchedule) UsedMachines() int64 {
	seen := make(map[int64]bool)
	for _, i := range s.Assign {
		seen[i] = true
	}
	return int64(len(seen))
}
