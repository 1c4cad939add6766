// Package hetslots implements the machine-dependent class-slot variant of
// CCS that Section 5 of the paper poses as an open direction: machine i has
// its own slot budget c_i (Chen, Jansen, Luo, Zhang handle the special case
// of one job per class; the general variant has no published algorithm).
//
// We provide the model, validation, certified lower bounds, and a
// slot-aware adaptation of the paper's Theorem 6 framework: guess the
// makespan by binary search, split classes into the C_u(T) groups of the
// homogeneous analysis (computed against the *largest* budget), and place
// groups with a budget-respecting LPT rule. The placement is a documented
// heuristic — no approximation guarantee is claimed for the heterogeneous
// case (that is exactly the open problem) — but every produced schedule is
// validated, and the tests check it against the 7/3 bound on homogeneous
// inputs.
package hetslots

import (
	"errors"
	"fmt"
	"sort"

	"ccsched/internal/core"
)

// Instance is a CCS instance whose machines carry individual slot budgets.
type Instance struct {
	// P and Class are as in core.Instance.
	P     []int64
	Class []int
	// Budgets[i] is machine i's class-slot budget c_i ≥ 1; the machine
	// count is len(Budgets).
	Budgets []int
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.P) }

// M returns the number of machines.
func (in *Instance) M() int { return len(in.Budgets) }

// NumClasses returns one plus the largest class index.
func (in *Instance) NumClasses() int {
	maxc := -1
	for _, c := range in.Class {
		if c > maxc {
			maxc = c
		}
	}
	return maxc + 1
}

// TotalSlots returns Σ_i c_i.
func (in *Instance) TotalSlots() int64 {
	var s int64
	for _, c := range in.Budgets {
		s += int64(c)
	}
	return s
}

// Validate checks the structural invariants.
func (in *Instance) Validate() error {
	if len(in.P) != len(in.Class) {
		return fmt.Errorf("hetslots: %d processing times but %d classes", len(in.P), len(in.Class))
	}
	if len(in.Budgets) == 0 {
		return errors.New("hetslots: need at least one machine")
	}
	for i, c := range in.Budgets {
		if c < 1 {
			return fmt.Errorf("hetslots: machine %d has budget %d", i, c)
		}
	}
	for j, p := range in.P {
		if p <= 0 {
			return fmt.Errorf("hetslots: job %d has non-positive processing time %d", j, p)
		}
		if in.Class[j] < 0 {
			return fmt.Errorf("hetslots: job %d has negative class", j)
		}
	}
	return nil
}

// ErrInfeasible reports C > Σ c_i.
var ErrInfeasible = errors.New("hetslots: more classes than total class slots")

// CheckFeasible reports whether any schedule exists.
func (in *Instance) CheckFeasible() error {
	if int64(in.NumClasses()) > in.TotalSlots() {
		return ErrInfeasible
	}
	return nil
}

// Homogeneous converts a core.Instance into the heterogeneous model with
// identical budgets (m must be small enough to materialize).
func Homogeneous(base *core.Instance) (*Instance, error) {
	if base.M > 1<<20 {
		return nil, fmt.Errorf("hetslots: cannot materialize %d machines", base.M)
	}
	out := &Instance{
		P:       append([]int64(nil), base.P...),
		Class:   append([]int(nil), base.Class...),
		Budgets: make([]int, base.M),
	}
	for i := range out.Budgets {
		out.Budgets[i] = base.Slots
	}
	return out, nil
}

// Schedule assigns every job to a machine.
type Schedule struct {
	Assign []int
}

// Makespan returns the maximum machine load.
func (s *Schedule) Makespan(in *Instance) int64 {
	loads := make([]int64, in.M())
	var mx int64
	for j, i := range s.Assign {
		loads[i] += in.P[j]
		if loads[i] > mx {
			mx = loads[i]
		}
	}
	return mx
}

// Validate checks machine ranges and the per-machine budgets c_i.
func (s *Schedule) Validate(in *Instance) error {
	if len(s.Assign) != in.N() {
		return fmt.Errorf("hetslots: schedule covers %d jobs, instance has %d", len(s.Assign), in.N())
	}
	classes := make([]map[int]bool, in.M())
	for j, i := range s.Assign {
		if i < 0 || i >= in.M() {
			return fmt.Errorf("hetslots: job %d on machine %d outside [0,%d)", j, i, in.M())
		}
		if classes[i] == nil {
			classes[i] = make(map[int]bool)
		}
		classes[i][in.Class[j]] = true
		if len(classes[i]) > in.Budgets[i] {
			return fmt.Errorf("hetslots: machine %d hosts %d classes, budget %d", i, len(classes[i]), in.Budgets[i])
		}
	}
	return nil
}

// LowerBound combines the area, p_max and slot-counting bounds, the latter
// against the total budget Σ c_i.
func (in *Instance) LowerBound() (int64, error) {
	if err := in.CheckFeasible(); err != nil {
		return 0, err
	}
	var total, pmax int64
	for _, p := range in.P {
		total += p
		if p > pmax {
			pmax = p
		}
	}
	lb := pmax
	if area := (total + int64(in.M()) - 1) / int64(in.M()); area > lb {
		lb = area
	}
	// Slot-counting: smallest T with Σ_u C_u(T) ≤ Σ_i c_i, with C_u as in
	// Theorem 6 (valid verbatim: its per-class argument does not use
	// machine identity).
	loads := make([]int64, in.NumClasses())
	byClass := make([][]int64, in.NumClasses())
	for j, p := range in.P {
		loads[in.Class[j]] += p
		byClass[in.Class[j]] = append(byClass[in.Class[j]], p)
	}
	for u := range byClass {
		sort.Slice(byClass[u], func(a, b int) bool { return byClass[u][a] > byClass[u][b] })
	}
	budget := in.TotalSlots()
	count := func(t int64) int64 {
		var sum int64
		for u := range byClass {
			if len(byClass[u]) == 0 {
				continue
			}
			sum += core.NonPreemptiveClassSlots(byClass[u], loads[u], t)
			if sum > budget {
				return sum
			}
		}
		return sum
	}
	lo, hi := lb, total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if count(mid) <= budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// Result is the heuristic solver output.
type Result struct {
	Schedule *Schedule
	// Guess is the accepted makespan guess.
	Guess int64
	// LB is the certified lower bound.
	LB int64
}

// Solve runs the slot-aware adaptation of the Theorem 6 framework:
// binary-search the guess T; per guess, split every class into C_u(T)
// groups by LPT; then place groups (largest first) onto the machine with
// minimum load among those that can still open a slot — machines with
// larger remaining budgets break ties. Placement failure rejects the guess.
func Solve(in *Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := in.CheckFeasible(); err != nil {
		return nil, err
	}
	lb, err := in.LowerBound()
	if err != nil {
		return nil, err
	}
	var total int64
	for _, p := range in.P {
		total += p
	}
	lo, hi := lb, total
	var bestAssign []int
	bestGuess := int64(-1)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		if assign, ok := tryGuess(in, mid); ok {
			bestAssign, bestGuess = assign, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestAssign == nil {
		return nil, fmt.Errorf("hetslots: no feasible guess up to Σp = %d", total)
	}
	return &Result{Schedule: &Schedule{Assign: bestAssign}, Guess: bestGuess, LB: lb}, nil
}

// group is a sub-class of whole jobs.
type group struct {
	class int
	load  int64
	jobs  []int
}

// tryGuess splits classes and places groups for one makespan guess.
func tryGuess(in *Instance, t int64) ([]int, bool) {
	byClass := make([][]int, in.NumClasses())
	for j, c := range in.Class {
		byClass[c] = append(byClass[c], j)
	}
	var groups []group
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
		ordered := append([]int(nil), jobs...)
		sort.SliceStable(ordered, func(a, b int) bool { return in.P[ordered[a]] > in.P[ordered[b]] })
		gs := make([]group, k)
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
		groups = append(groups, gs...)
	}
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].load > groups[b].load })
	// Placement: min-load machine with a free slot (or already hosting the
	// class); ties prefer the larger remaining budget.
	loads := make([]int64, in.M())
	hosted := make([]map[int]bool, in.M())
	remaining := append([]int(nil), in.Budgets...)
	assign := make([]int, in.N())
	for _, g := range groups {
		best := -1
		for i := 0; i < in.M(); i++ {
			free := hosted[i][g.class] || remaining[i] > 0
			if !free {
				continue
			}
			if best < 0 || loads[i] < loads[best] ||
				(loads[i] == loads[best] && remaining[i] > remaining[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		if hosted[best] == nil {
			hosted[best] = make(map[int]bool)
		}
		if !hosted[best][g.class] {
			hosted[best][g.class] = true
			remaining[best]--
		}
		loads[best] += g.load
		for _, j := range g.jobs {
			assign[j] = best
		}
	}
	// Accept only if the construction respects the usual 7/3-style margin;
	// otherwise force a larger guess. (7/3·T mirrors the homogeneous
	// analysis and keeps the binary search meaningful.)
	for _, l := range loads {
		if 3*l > 7*t {
			return nil, false
		}
	}
	return assign, true
}
