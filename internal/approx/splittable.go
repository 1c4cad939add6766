// Package approx implements the strongly polynomial constant-factor
// approximation algorithms of Section 3 of Jansen, Lassota, Maack
// (SPAA 2020): the 2-approximation for the splittable and preemptive
// variants (Algorithm 1 and its Algorithm 2 extension) and the
// 7/3-approximation for the non-preemptive variant (Theorem 6).
//
// All three share the paper's framework: guess the makespan T via the
// "advanced" binary search along class borders P_u/k (Lemma 2), split
// classes whose accumulated load exceeds T into the minimum number of
// sub-classes any schedule with makespan T must use, and distribute the
// sub-classes by round robin in non-ascending load order (Lemma 3).
//
// All cutting and load accounting runs on rat.R, the int64 fraction fast
// path of internal/rat; *big.Rat appears only in the result structs at the
// API boundary.
package approx

import (
	"fmt"
	"math/big"
	"sort"

	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// DefaultExplicitMachineLimit is the machine count up to which the
// splittable solver emits an explicit piece-per-machine schedule by default.
const DefaultExplicitMachineLimit int64 = 1 << 16

// Options configures SolveSplittableOpts. The zero value selects defaults,
// so passing Options{} is always safe. Options values are read-only during a
// solve: unlike the former package-level ExplicitMachineLimit global,
// concurrent solvers with different options do not race.
type Options struct {
	// ExplicitMachineLimit bounds the number of machines for which the
	// solver emits an explicit piece-per-machine schedule in addition to the
	// compact machine-group form. Above the limit it switches to the compact
	// construction of Theorem 4's "Handling an Exponential Number of
	// Machines" paragraph. Zero selects DefaultExplicitMachineLimit.
	ExplicitMachineLimit int64
}

func (o Options) explicitLimit() int64 {
	if o.ExplicitMachineLimit > 0 {
		return o.ExplicitMachineLimit
	}
	return DefaultExplicitMachineLimit
}

// SplitResult is the output of SolveSplittable.
type SplitResult struct {
	// Compact is the schedule in machine-group form; always populated.
	Compact *core.CompactSplitSchedule
	// Explicit is the piece-per-machine form. It is populated when the
	// machine count is at most the explicit-machine limit, and also when
	// the compact construction fell back to the explicit one (m < C; see
	// errCompactNeedsExplicit).
	Explicit *core.SplitSchedule
	// Guess is the accepted makespan guess T̂ = max(LB, smallest feasible
	// border); the schedule's makespan is at most LB + T̂ ≤ 2·OPT.
	Guess *big.Rat
	// LB is the area lower bound Σp_j/m.
	LB *big.Rat
	// SubClasses is the number of sub-classes after splitting.
	SubClasses int64
}

// Makespan returns the schedule's makespan.
func (r *SplitResult) Makespan() *big.Rat { return r.Compact.Makespan() }

// pieceRef is a fragment of a job inside a sub-class.
type pieceRef struct {
	job  int
	size rat.R
}

// bundle is a sub-class: a set of job fragments of one class with
// accumulated load at most the guess T̂.
type bundle struct {
	class  int
	load   rat.R
	pieces []pieceRef
}

// SolveSplittable runs Algorithm 1 with default options.
func SolveSplittable(in *core.Instance) (*SplitResult, error) {
	return SolveSplittableOpts(in, Options{})
}

// SolveSplittableOpts runs Algorithm 1 and returns a feasible schedule with
// makespan at most 2·OPT in time O(n² log n), for any machine count
// (Theorem 4). It returns core.ErrInfeasible when C > c·m.
func SolveSplittableOpts(in *core.Instance, opts Options) (*SplitResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	bound, err := core.LowerBoundR(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	return SolveSplittableLB(in, opts, bound)
}

// SolveSplittableLB is SolveSplittableOpts given the instance's certified
// bound core.LowerBoundR(in, core.Splittable), for callers that computed
// it already; any other value voids the guarantee.
func SolveSplittableLB(in *core.Instance, opts Options, bound rat.R) (*SplitResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := core.CheckFeasible(in); err != nil {
		return nil, err
	}
	lb := rat.Frac(in.TotalLoad(), in.M)
	// T̂ = max(LB, smallest feasible border), which is the certified bound.
	// Both terms lower-bound OPT and the slot count is monotone, so T̂ stays
	// feasible; cutting at T̂ ≥ LB additionally caps the number of full-size
	// windows by ΣP/T̂ ≤ m, which the compact path relies on.
	guess := bound
	if in.N() == 0 {
		return &SplitResult{Compact: &core.CompactSplitSchedule{}, Guess: guess.Rat(), LB: lb.Rat()}, nil
	}
	if in.M <= opts.explicitLimit() {
		return solveSplittableExplicit(in, lb, guess)
	}
	res, err := solveSplittableCompact(in, lb, guess)
	if err == errCompactNeedsExplicit {
		// The compact pairing requires m ≥ C (see solveSplittableCompact);
		// m < C ≤ n here, so the explicit construction is polynomial.
		return solveSplittableExplicit(in, lb, guess)
	}
	return res, err
}

// errCompactNeedsExplicit reports that the compact construction's
// remainder/full-window pairing cannot finish because m < C; callers fall
// back to the explicit round-robin construction, which handles several
// sub-classes per machine.
var errCompactNeedsExplicit = fmt.Errorf("approx: compact construction needs m >= C")

// cutClasses slices every class into sub-classes of load at most t: full
// windows of size exactly t plus at most one remainder per class. Jobs are
// consumed in index order, so a job is cut only at window boundaries. All
// arithmetic stays on rat.R values; no per-window heap rationals are
// allocated.
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
// construction order so that consecutive windows of one class stay adjacent
// (the preemptive repacking argument relies on this).
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

func solveSplittableExplicit(in *core.Instance, lb, guess rat.R) (*SplitResult, error) {
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

// solveSplittableCompact emits a machine-group schedule whose encoding stays
// polynomial in n even for exponential m. The construction follows the
// paper: only the C remainder sub-classes are handled explicitly; full
// windows of size exactly T̂ are stored as run-length groups (per job, since
// a class's interior windows consist of a single job's fragments), and any
// overflow beyond m machines pairs a remainder with a full window — feasible
// because overflow forces c ≥ 2.
func solveSplittableCompact(in *core.Instance, lb, guess rat.R) (*SplitResult, error) {
	byClass := in.ClassJobs()
	type fullRun struct { // count machines, each one piece (job, T̂)
		job   int
		count int64
	}
	var runs []fullRun
	var windows []bundle    // explicit full windows spanning a job boundary
	var remainders []bundle // per-class remainder, load < T̂
	for u, jobs := range byClass {
		if len(jobs) == 0 {
			continue
		}
		cur := bundle{class: u}
		for _, j := range jobs {
			remaining := rat.FromInt(in.P[j])
			// Fill the open boundary window first.
			if cur.load.Sign() > 0 {
				room := guess.Sub(cur.load)
				take := remaining
				if take.Cmp(room) > 0 {
					take = room
				}
				cur.pieces = append(cur.pieces, pieceRef{job: j, size: take})
				cur.load = cur.load.Add(take)
				remaining = remaining.Sub(take)
				if cur.load.Cmp(guess) == 0 {
					windows = append(windows, cur)
					cur = bundle{class: u}
				}
			}
			if remaining.Sign() == 0 {
				continue
			}
			// Whole windows of this job alone: count = floor(remaining/T̂).
			if full := remaining.FloorQuo(guess); full > 0 {
				runs = append(runs, fullRun{job: j, count: full})
				remaining = remaining.Sub(guess.MulInt(full))
			}
			if remaining.Sign() > 0 {
				cur.pieces = append(cur.pieces, pieceRef{job: j, size: remaining})
				cur.load = remaining
			}
		}
		if cur.load.Sign() > 0 {
			remainders = append(remainders, cur)
		}
	}
	var fullCount int64
	for _, r := range runs {
		fullCount += r.count
	}
	fullCount += int64(len(windows))
	total := fullCount + int64(len(remainders))
	overflow := total - in.M
	if overflow > 0 && in.Slots < 2 {
		// Cannot happen: overflow implies the slot count at T̂ exceeds m,
		// yet feasibility guarantees count ≤ c·m, so c ≥ 2.
		return nil, fmt.Errorf("approx: internal error: overflow %d with c=1", overflow)
	}
	sched := &core.CompactSplitSchedule{}
	// Pair `overflow` remainders with full windows drawn from the runs.
	paired := int64(0)
	for paired < overflow && len(remainders) > 0 {
		rem := remainders[len(remainders)-1]
		remainders = remainders[:len(remainders)-1]
		// Draw one full window: prefer run groups, fall back to explicit
		// boundary windows.
		var pieces []core.GroupPiece
		switch {
		case len(runs) > 0:
			r := &runs[len(runs)-1]
			pieces = append(pieces, core.GroupPiece{Job: r.job, Size: guess})
			r.count--
			if r.count == 0 {
				runs = runs[:len(runs)-1]
			}
		case len(windows) > 0:
			w := windows[len(windows)-1]
			windows = windows[:len(windows)-1]
			for _, pc := range w.pieces {
				pieces = append(pieces, core.GroupPiece{Job: pc.job, Size: pc.size})
			}
		default:
			return nil, errCompactNeedsExplicit
		}
		for _, pc := range rem.pieces {
			pieces = append(pieces, core.GroupPiece{Job: pc.job, Size: pc.size})
		}
		sched.Groups = append(sched.Groups, core.MachineGroup{Count: 1, Pieces: pieces})
		paired++
	}
	if paired < overflow {
		return nil, errCompactNeedsExplicit
	}
	for _, r := range runs {
		sched.Groups = append(sched.Groups, core.MachineGroup{
			Count:  r.count,
			Pieces: []core.GroupPiece{{Job: r.job, Size: guess}},
		})
	}
	for _, w := range windows {
		var pieces []core.GroupPiece
		for _, pc := range w.pieces {
			pieces = append(pieces, core.GroupPiece{Job: pc.job, Size: pc.size})
		}
		sched.Groups = append(sched.Groups, core.MachineGroup{Count: 1, Pieces: pieces})
	}
	for _, rem := range remainders {
		var pieces []core.GroupPiece
		for _, pc := range rem.pieces {
			pieces = append(pieces, core.GroupPiece{Job: pc.job, Size: pc.size})
		}
		sched.Groups = append(sched.Groups, core.MachineGroup{Count: 1, Pieces: pieces})
	}
	return &SplitResult{
		Compact:    sched,
		Guess:      guess.Rat(),
		LB:         lb.Rat(),
		SubClasses: total,
	}, nil
}
