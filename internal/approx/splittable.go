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
// Each algorithm is split into a plan and its realization. The plan
// (PlanSplittable, PlanPreemptive, PlanNonPreemptive) holds T̂ and the
// sub-classes' loads in their round-robin order, which puts the makespan on
// machine 0: its Makespan needs no schedule. Realize builds the schedule
// from the plan. The PTAS driver reads only the plan's makespan, as its
// guess-grid top and best-of floor, and realizes the schedule only when it
// returns it (its approx-fallback and approx-min exits).
//
// All cutting and load accounting runs on rat.R, the int64 fraction fast
// path of internal/rat; *big.Rat appears only in the result structs at the
// API boundary.
package approx

import (
	"cmp"
	"fmt"
	"math/big"
	"slices"

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
	ix := core.NewClassIndex(in, core.Splittable)
	bound, err := ix.LowerBound()
	if err != nil {
		return nil, err
	}
	p, err := PlanSplittableIndexed(ix, opts, bound)
	if err != nil {
		return nil, err
	}
	return p.Realize(), nil
}

// SplitPlan is Algorithm 1 before its schedule is built: the accepted guess
// T̂ and the sub-classes in the order round robin deals them. Above the
// explicit-machine limit the compact schedule is built eagerly instead: it
// pairs remainders with full windows rather than dealing round robin, so
// its makespan is read off the schedule.
type SplitPlan struct {
	ix        *core.ClassIndex
	guess, lb rat.R
	subs      subClasses
	compact   *SplitResult
	makespan  rat.R
}

// PlanSplittable plans Algorithm 1 given the instance's certified bound
// core.LowerBoundR(in, core.Splittable); any other value voids the
// guarantee. It returns core.ErrInfeasible when C > c·m.
func PlanSplittable(in *core.Instance, opts Options, bound rat.R) (*SplitPlan, error) {
	return PlanSplittableIndexed(core.NewClassIndex(in, core.Splittable), opts, bound)
}

// PlanSplittableIndexed is PlanSplittable over the instance's class index.
func PlanSplittableIndexed(ix *core.ClassIndex, opts Options, bound rat.R) (*SplitPlan, error) {
	in := ix.In
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ix.CheckFeasible(); err != nil {
		return nil, err
	}
	// T̂ = max(LB, smallest feasible border), which is the certified bound.
	// Both terms lower-bound OPT and the slot count is monotone, so T̂ stays
	// feasible; cutting at T̂ ≥ LB additionally caps the number of full-size
	// windows by ΣP/T̂ ≤ m, which the compact path relies on.
	p := &SplitPlan{ix: ix, guess: bound, lb: rat.Frac(ix.Total, in.M)}
	if in.N() == 0 {
		return p, nil
	}
	if in.M > opts.explicitLimit() {
		res, err := solveSplittableCompact(ix, p.lb, p.guess)
		if err == nil {
			p.compact, p.makespan = res, res.Compact.MakespanR()
			return p, nil
		}
		// The compact pairing requires m ≥ C (see solveSplittableCompact);
		// m < C ≤ n here, so the explicit construction is polynomial.
		if err != errCompactNeedsExplicit {
			return nil, err
		}
	}
	p.subs = newSubClasses(ix, p.guess)
	p.makespan = p.subs.firstMachineLoad(in.M)
	return p, nil
}

// Makespan returns the makespan of the schedule Realize builds.
func (p *SplitPlan) Makespan() rat.R { return p.makespan }

// Realize builds the planned schedule.
func (p *SplitPlan) Realize() *SplitResult {
	if p.compact != nil {
		return p.compact
	}
	in := p.ix.In
	res := &SplitResult{Compact: &core.CompactSplitSchedule{}, Guess: p.guess.Rat(), LB: p.lb.Rat()}
	if in.N() == 0 {
		return res
	}
	bundles, pieces := p.subs.bundles(p.ix)
	count := int64(len(bundles))
	w := dealWidth(count, in.M)
	sched := &core.SplitSchedule{Pieces: make([]core.SplitPiece, 0, pieces)}
	for i := int64(0); i < w; i++ {
		for k := i; k < count; k += w {
			for _, pc := range bundles[k].pieces {
				sched.Pieces = append(sched.Pieces, core.SplitPiece{
					Job: pc.job, Machine: i, Size: pc.size,
				})
			}
		}
	}
	res.Compact, res.Explicit, res.SubClasses = core.FromSplit(sched), sched, count
	return res
}

// errCompactNeedsExplicit reports that the compact construction's
// remainder/full-window pairing cannot finish because m < C; callers fall
// back to the explicit round-robin construction, which handles several
// sub-classes per machine.
var errCompactNeedsExplicit = fmt.Errorf("approx: compact construction needs m >= C")

// subClasses is the cut of every class into sub-classes of load at most T̂
// in the order round robin deals them (Lemma 3): non-ascending load. First
// come the ⌊P_u/T̂⌋ full windows of load exactly T̂ of every class, classes
// ascending, then each class's remainder P_u − ⌊P_u/T̂⌋·T̂ > 0 by
// non-ascending load, ties by class. A class's full windows stay adjacent,
// which the preemptive repacking relies on. This is the only place that
// order is computed: the makespan and the schedules read it.
type subClasses struct {
	guess rat.R
	full  []classWindows // classes with a full window, ascending
	nFull int64
	rems  []remainder
}

// classWindows is a class's run of full windows.
type classWindows struct {
	class int
	count int64
}

// remainder is a class's last, partial window.
type remainder struct {
	class int
	load  rat.R
}

func newSubClasses(ix *core.ClassIndex, t rat.R) subClasses {
	s := subClasses{guess: t, full: make([]classWindows, 0, ix.NonEmpty), rems: make([]remainder, 0, ix.NonEmpty)}
	for u, pu := range ix.Loads {
		if pu == 0 {
			continue
		}
		load := rat.FromInt(pu)
		k := load.FloorQuo(t)
		if k > 0 {
			s.full = append(s.full, classWindows{class: u, count: k})
			s.nFull += k
		}
		if rem := load.Sub(t.MulInt(k)); rem.Sign() > 0 {
			s.rems = append(s.rems, remainder{class: u, load: rem})
		}
	}
	slices.SortFunc(s.rems, func(a, b remainder) int {
		if c := b.load.Cmp(a.load); c != 0 {
			return c
		}
		return cmp.Compare(a.class, b.class)
	})
	return s
}

// count is the number of sub-classes.
func (s *subClasses) count() int64 { return s.nFull + int64(len(s.rems)) }

// load is the load of the sub-class at position k.
func (s *subClasses) load(k int64) rat.R {
	if k < s.nFull {
		return s.guess
	}
	return s.rems[k-s.nFull].load
}

// firstMachineLoad is the load round robin deals to machine 0: positions
// 0, m′, 2m′, … with m′ = min(m, count). The loads are non-ascending, so
// machine 0's r-th sub-class is at least any other machine's r-th and no
// machine gets more sub-classes: machine 0 carries the makespan.
func (s *subClasses) firstMachineLoad(m int64) rat.R {
	count := s.count()
	w := dealWidth(count, m)
	var sum rat.R
	for k := int64(0); k < count; k += w {
		sum = sum.Add(s.load(k))
	}
	return sum
}

// bundles cuts the classes into the planned sub-classes and lists them in
// dealing order, with their total piece count. Jobs are consumed in index
// order, so a job is cut only at window boundaries.
func (s *subClasses) bundles(ix *core.ClassIndex) ([]bundle, int) {
	windows := make([][]bundle, len(ix.Jobs))
	pieces := 0
	for u, jobs := range ix.Jobs {
		windows[u] = cutClass(ix.In, u, jobs, s.guess)
		for _, w := range windows[u] {
			pieces += len(w.pieces)
		}
	}
	out := make([]bundle, 0, s.count())
	for _, fw := range s.full {
		out = append(out, windows[fw.class][:fw.count]...)
	}
	for _, r := range s.rems {
		ws := windows[r.class]
		out = append(out, ws[len(ws)-1])
	}
	return out, pieces
}

// cutClass slices class u, whose jobs are given in index order, into full
// windows of load exactly t followed by at most one remainder. All
// arithmetic stays on rat.R values; no per-window heap rationals are
// allocated.
func cutClass(in *core.Instance, u int, jobs []int, t rat.R) []bundle {
	var out []bundle
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
	return out
}

// dealWidth is the number of machines round robin deals count sub-classes
// onto, m′ = min(m, count): the sub-class at position k goes to machine
// k mod m′.
func dealWidth(count, m int64) int64 { return min(count, m) }

// solveSplittableCompact emits a machine-group schedule whose encoding stays
// polynomial in n even for exponential m. The construction follows the
// paper: only the C remainder sub-classes are handled explicitly; full
// windows of size exactly T̂ are stored as run-length groups (per job, since
// a class's interior windows consist of a single job's fragments), and any
// overflow beyond m machines pairs a remainder with a full window — feasible
// because overflow forces c ≥ 2.
func solveSplittableCompact(ix *core.ClassIndex, lb, guess rat.R) (*SplitResult, error) {
	in := ix.In
	type fullRun struct { // count machines, each one piece (job, T̂)
		job   int
		count int64
	}
	var runs []fullRun
	var windows []bundle    // explicit full windows spanning a job boundary
	var remainders []bundle // per-class remainder, load < T̂
	for u, jobs := range ix.Jobs {
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
