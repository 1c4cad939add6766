package approx

import (
	"cmp"
	"slices"
	"sort"

	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// The constant-factor constructions as they were before each algorithm was
// split into a plan and its realization: every schedule is built in one
// pass, with a separate class cut, sort and round-robin dealing. They are
// the oracle TestPlanMatchesRealizedSchedule holds the plans to, byte for
// byte.

// cutClasses slices every class into sub-classes of load at most t: full
// windows of size exactly t plus at most one remainder per class. Jobs are
// consumed in index order, so a job is cut only at window boundaries.
func cutClasses(in *core.Instance, t rat.R) []bundle {
	byClass := in.ClassJobs()
	var out []bundle
	for u, jobs := range byClass {
		if len(jobs) == 0 {
			continue
		}
		cur := bundle{class: u}
		for _, j := range jobs {
			remaining := rat.FromInt(in.P[j])
			for remaining.Sign() > 0 {
				room := t.Sub(cur.load)
				take := remaining
				if take.Cmp(room) > 0 {
					take = room
				}
				cur.pieces = append(cur.pieces, pieceRef{job: j, size: take})
				cur.load = cur.load.Add(take)
				remaining = remaining.Sub(take)
				if cur.load.Cmp(t) == 0 {
					out = append(out, cur)
					cur = bundle{class: u}
				}
			}
		}
		if cur.load.Sign() > 0 {
			out = append(out, cur)
		}
	}
	return out
}

// sortBundles orders sub-classes by non-ascending load; ties keep the
// construction order.
func sortBundles(bs []bundle) {
	sort.SliceStable(bs, func(a, b int) bool { return bs[a].load.Cmp(bs[b].load) > 0 })
}

// roundRobin assigns sub-classes cyclically to machines 0..m-1 in the given
// order and returns, per machine, the indices of its sub-classes.
func roundRobin(count int, m int64) [][]int {
	if int64(count) < m {
		m = int64(count)
	}
	if m == 0 {
		return nil
	}
	out := make([][]int, m)
	for i := 0; i < count; i++ {
		out[int64(i)%m] = append(out[int64(i)%m], i)
	}
	return out
}

// oracleSplittable is Algorithm 1 built in one pass.
func oracleSplittable(in *core.Instance, opts Options, guess rat.R) (*SplitResult, error) {
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	lb := rat.Frac(in.TotalLoad(), in.M)
	if in.N() == 0 {
		return &SplitResult{Compact: &core.CompactSplitSchedule{}, Guess: guess.Rat(), LB: lb.Rat()}, nil
	}
	if in.M > opts.explicitLimit() {
		res, err := solveSplittableCompact(core.NewClassIndex(in, core.Splittable), lb, guess)
		if err != errCompactNeedsExplicit {
			return res, err
		}
	}
	bundles := cutClasses(in, guess)
	sortBundles(bundles)
	perMachine := roundRobin(len(bundles), in.M)
	sched := &core.SplitSchedule{}
	for i, idxs := range perMachine {
		for _, bi := range idxs {
			for _, pc := range bundles[bi].pieces {
				sched.Pieces = append(sched.Pieces, core.SplitPiece{
					Job: pc.job, Machine: int64(i), Size: pc.size,
				})
			}
		}
	}
	return &SplitResult{
		Compact:    core.FromSplit(sched),
		Explicit:   sched,
		Guess:      guess.Rat(),
		LB:         lb.Rat(),
		SubClasses: int64(len(bundles)),
	}, nil
}

// oraclePreemptive is Algorithm 1 with the Algorithm 2 extension built in
// one pass.
func oraclePreemptive(in *core.Instance, guess rat.R) (*PreemptiveResult, error) {
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	if in.M >= int64(in.N()) {
		sched := &core.PreemptiveSchedule{}
		for j := range in.P {
			sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
				Job: j, Machine: int64(j), Size: rat.FromInt(in.P[j]),
			})
		}
		pm := core.RatInt(in.PMax())
		return &PreemptiveResult{Schedule: sched, Guess: pm, LB: pm}, nil
	}
	lb := rat.Max(rat.FromInt(in.PMax()), rat.Frac(in.TotalLoad(), in.M))
	bundles := cutClasses(in, guess)
	sortBundles(bundles)
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

// jobGroup is one of the C_u sub-classes of a class: whole jobs only.
type jobGroup struct {
	class int
	load  int64
	jobs  []int
}

// splitClassesLPT divides every class u into C_u(T) groups using LPT.
func splitClassesLPT(in *core.Instance, t int64) []jobGroup {
	byClass := in.ClassJobs()
	var out []jobGroup
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
		gs := make([]jobGroup, k)
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
		out = append(out, gs...)
	}
	return out
}

// oracleNonPreemptive is the Theorem 6 algorithm built in one pass.
func oracleNonPreemptive(in *core.Instance, bound rat.R) (*NonPreemptiveResult, error) {
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	n := in.N()
	if in.M >= int64(n) {
		s := &core.NonPreemptiveSchedule{Assign: make([]int64, n)}
		for j := range s.Assign {
			s.Assign[j] = int64(j)
		}
		return &NonPreemptiveResult{Schedule: s, Guess: in.PMax(), LB: in.PMax(), Groups: n}, nil
	}
	lb := in.PMax()
	if area := core.RatCeilDiv(in.TotalLoad(), in.M); area > lb {
		lb = area
	}
	guess := bound.Ceil()
	groups := splitClassesLPT(in, guess)
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].load > groups[b].load })
	perMachine := roundRobin(len(groups), in.M)
	s := &core.NonPreemptiveSchedule{Assign: make([]int64, n)}
	for i, idxs := range perMachine {
		for _, gi := range idxs {
			for _, j := range groups[gi].jobs {
				s.Assign[j] = int64(i)
			}
		}
	}
	return &NonPreemptiveResult{Schedule: s, Guess: guess, LB: lb, Groups: len(groups)}, nil
}

// lptGroupsOracle is lptGroups as it was before the class index: it sorts
// fresh per-class job lists itself and returns the group loads in dealing
// order and each job's group position.
func lptGroupsOracle(in *core.Instance, guess int64) ([]int64, []int) {
	group := make([]int, in.N())
	var loads []int64
	var ps []int64
	for _, jobs := range in.ClassJobs() {
		if len(jobs) == 0 {
			continue
		}
		slices.SortStableFunc(jobs, func(a, b int) int { return cmp.Compare(in.P[b], in.P[a]) })
		ps = ps[:0]
		var pu int64
		for _, j := range jobs {
			ps = append(ps, in.P[j])
			pu += in.P[j]
		}
		k := min(max(core.NonPreemptiveClassSlots(ps, pu, guess), 1), int64(len(jobs)))
		base := len(loads)
		loads = append(loads, make([]int64, k)...)
		gs := loads[base:]
		for _, j := range jobs {
			best := 0
			for g := 1; g < len(gs); g++ {
				if gs[g] < gs[best] {
					best = g
				}
			}
			gs[best] += in.P[j]
			group[j] = base + best
		}
	}
	order := make([]int, len(loads))
	for g := range order {
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(loads[b], loads[a]) })
	rank := make([]int, len(loads))
	sorted := make([]int64, len(loads))
	for k, g := range order {
		rank[g] = k
		sorted[k] = loads[g]
	}
	for j, g := range group {
		group[j] = rank[g]
	}
	return sorted, group
}
