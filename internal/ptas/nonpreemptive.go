package ptas

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/big"
	"slices"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/nfold"
	"ccsched/internal/rat"
)

// The non-preemptive PTAS (Section 4.2). Jobs cannot be glued per class, so
// the preprocessing groups small jobs into bundles of size in [δT, 2δT)
// (possibly merging a leftover below δT into another job), after which
// every class is large (all jobs ≥ δT) or small (one job < δT). Modules
// become multisets of rounded job sizes; configurations are multisets of
// module sizes; constraint (4) turns into |P| local rows matching the job
// counts n^u_p.
//
// Everything is measured in units of δ²T/c, exactly as in the splittable
// case: T̄ = (1+3δ)(1+2δ)T = (g²+5g+6)·c units for δ = 1/g.

// npJob is a job of the grouped instance I': a bundle of original jobs
// scheduled together on one machine.
type npJob struct {
	class int
	orig  []int // original job indices; all placed on the grouped job's machine
	load  int64 // exact total processing time
	units int64 // rounded size in δ²T/c units (multiples of c for large classes)
}

// npGuessCtx carries the per-guess state for the non-preemptive PTAS: the
// grouped instance and the guess's module and configuration enumerations.
type npGuessCtx struct {
	groupedGuess
	// modules: multisets over sizes with total ≤ T̄; their distinct totals
	// are the module kinds of the configurations.
	modules  []moduleVec
	modSizes []int64 // distinct module totals (units)
	ilp      *configILP
}

type moduleVec struct {
	counts []int64 // parallel to sizes
	total  int64   // Σ counts·sizes (units)
}

// groupJobs performs the paper's grouping for one class: bundle jobs < δT
// into [δT, 2δT) packets; a leftover below δT merges into another job if
// one exists, else the class becomes small. The bundles' job lists are
// capacity-capped sub-slices of buf, which must have room for the class's
// jobs; it returns the rest of buf. Only a merge into out[0] copies its list.
func groupJobs(in *core.Instance, jobs []int, g, t int64, buf []int) ([]npJob, bool, []int) {
	// The big jobs come first in buf, then the small ones in order, so each
	// packet is a run of the small part.
	nBig := 0
	for _, j := range jobs {
		if in.P[j]*g > t {
			buf[nBig] = j
			nBig++
		}
	}
	nSmall := nBig
	for _, j := range jobs {
		if in.P[j]*g <= t {
			buf[nSmall] = j
			nSmall++
		}
	}
	list, rest := buf[:len(jobs)], buf[len(jobs):]
	var out []npJob
	packets, start := 0, nBig
	var load int64
	for k := nBig; k < len(list); k++ {
		load += in.P[list[k]]
		if load*g > t { // reached δT
			packets++
			load = 0
		}
	}
	out = make([]npJob, 0, nBig+packets)
	for k := 0; k < nBig; k++ {
		out = append(out, npJob{orig: list[k : k+1 : k+1], load: in.P[list[k]]})
	}
	load = 0
	for k := nBig; k < len(list); k++ {
		load += in.P[list[k]]
		if load*g > t {
			out = append(out, npJob{orig: list[start : k+1 : k+1], load: load})
			start, load = k+1, 0
		}
	}
	if start < len(list) {
		if len(out) == 0 {
			// The whole class is below δT: a small class.
			return []npJob{{orig: list[start:len(list):len(list)], load: load}}, true, rest
		}
		// Merge the leftover into an existing job.
		out[0].orig = append(out[0].orig, list[start:]...)
		out[0].load += load
	}
	return out, false, rest
}

// groupedGuess is the grouped and rounded instance I' of one guess, which
// the non-preemptive and preemptive schemes share: bundled jobs per class,
// the large/small classification, the distinct rounded large-job sizes and
// their per-class counts n^u_p, and the rounded small-class loads.
type groupedGuess struct {
	ix         *core.ClassIndex
	g, t       int64
	classes    []int // nonempty classes in brick order
	jobs       [][]npJob
	small      []bool
	sizes      []int64 // distinct rounded sizes (units) of large-class jobs, ascending
	nUP        map[[2]int64]int64
	smallUnits []int64 // rounded small-class load per class
}

// groupGuess groups and rounds every class at guess t: small classes to
// δ²T/c units, the grouped jobs of large classes to multiples of δ²T.
func groupGuess(ix *core.ClassIndex, g, t int64) groupedGuess {
	in := ix.In
	c := int64(in.Slots)
	cc := ix.NumClasses()
	gg := groupedGuess{
		ix: ix, g: g, t: t, classes: make([]int, 0, ix.NonEmpty),
		jobs: make([][]npJob, cc), small: make([]bool, cc),
		smallUnits: make([]int64, cc), nUP: make(map[[2]int64]int64),
	}
	buf := make([]int, in.N())
	for u, js := range ix.Jobs {
		if len(js) == 0 {
			continue
		}
		gg.classes = append(gg.classes, u)
		var grouped []npJob
		var isSmall bool
		grouped, isSmall, buf = groupJobs(in, js, g, t, buf)
		gg.small[u] = isSmall
		if isSmall {
			gg.smallUnits[u] = ceilDivBig(grouped[0].load, g*g*c, t)
			grouped[0].units = gg.smallUnits[u]
			grouped[0].class = u
			gg.jobs[u] = grouped
			continue
		}
		for k := range grouped {
			grouped[k].class = u
			grouped[k].units = ceilDivBig(grouped[k].load, g*g, t) * c
			key := [2]int64{int64(u), grouped[k].units}
			if gg.nUP[key] == 0 {
				gg.sizes = append(gg.sizes, key[1])
			}
			gg.nUP[key]++
		}
		gg.jobs[u] = grouped
	}
	slices.Sort(gg.sizes)
	gg.sizes = slices.Compact(gg.sizes)
	return gg
}

// count is n^u_p, the number of class u's grouped jobs of rounded size p.
func (gg *groupedGuess) count(u int, p int64) int64 { return gg.nUP[[2]int64{int64(u), p}] }

// digest keys the feasibility cache (see groupedDigest).
func (gg *groupedGuess) digest() [sha256.Size]byte {
	return groupedDigest(gg.ix.In.M, gg.ix.In.Slots, gg.g, gg.sizes, gg.classes, gg.small, gg.smallUnits, gg.nUP)
}

// instantiate performs the per-guess grouping, rounding and enumeration
// (all guess-dependent for this scheme; see npTemplate).
func (tm *npTemplate) instantiate(solveCtx context.Context, t int64) (*npGuessCtx, error) {
	in, g, limit := tm.ix.In, tm.g, tm.limit
	ctx := &npGuessCtx{groupedGuess: groupGuess(tm.ix, g, t)}
	c := int64(in.Slots)
	tBar := (g*g + 5*g + 6) * c
	cStar := min(c, (tBar+g*c-1)/(g*c)) // ⌈T̄/δT⌉
	// Enumerate modules: multisets of sizes with total ≤ T̄.
	modConfigs, err := enumerateConfigs(solveCtx, ctx.sizes, tBar, int64(1)<<40, limit)
	if err != nil {
		return nil, err
	}
	for _, mc := range modConfigs {
		if mc.slots == 0 {
			continue // the empty module is not a module
		}
		ctx.modules = append(ctx.modules, moduleVec{counts: mc.counts, total: mc.size})
		ctx.modSizes = append(ctx.modSizes, mc.size)
	}
	slices.Sort(ctx.modSizes)
	ctx.modSizes = slices.Compact(ctx.modSizes)
	configs, err := enumerateConfigs(solveCtx, ctx.modSizes, tBar, cStar, limit)
	if err != nil {
		return nil, err
	}
	kindOf := make(map[int64]int, len(ctx.modSizes))
	for k, s := range ctx.modSizes {
		kindOf[s] = k
	}
	yKind := make([]int, len(ctx.modules))
	for mi, mv := range ctx.modules {
		yKind[mi] = kindOf[mv.total]
	}
	ctx.ilp = newConfigILP(multisets(configs), len(ctx.modSizes), yKind, c, tBar)
	return ctx, nil
}

// buildNFold encodes the non-preemptive constraints (0)–(5). Its blocks
// depend on the guess, so they are shared across the probe's bricks only.
func (ctx *npGuessCtx) buildNFold(solveCtx context.Context) (*nfold.Problem, error) {
	nP := len(ctx.sizes)
	yOff := ctx.ilp.yOff()
	bl, err := ctx.ilp.blocks(solveCtx, 0, nP, func(b [][]int64) {
		// (4) per size p: Σ_M M_p y_M = (1-ξ_u) n^u_p.
		for pi := range ctx.sizes {
			for mi, mv := range ctx.modules {
				if mv.counts[pi] != 0 {
					b[pi][yOff+mi] = mv.counts[pi]
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return bl.build(solveCtx, ctx.ix.In.M, ctx.classes, ctx.small, ctx.smallUnits, func(u int, _ []int64) ([]int64, int64) {
		lrhs := make([]int64, nP+1)
		var totJobs int64
		for pi, sz := range ctx.sizes {
			lrhs[pi] = ctx.count(u, sz)
			totJobs += lrhs[pi]
		}
		return lrhs, totJobs
	})
}

// NonPreemptiveResult is the non-preemptive PTAS output.
type NonPreemptiveResult struct {
	Schedule *core.NonPreemptiveSchedule
	Report   Report
	makespan rat.R
}

// Makespan returns the schedule makespan, which the solve computed once.
func (r *NonPreemptiveResult) Makespan() *big.Rat { return r.makespan.Rat() }

// SolveNonPreemptive runs the non-preemptive PTAS (Theorem 14). The context
// cancels the makespan-guess search — including in-flight N-fold solves —
// so ctx.Err() surfaces within one augmentation iteration or
// branch-and-bound node.
func SolveNonPreemptive(ctx context.Context, in *core.Instance, opts Options) (*NonPreemptiveResult, error) {
	ix, bound, err := certifiedBound(in, core.NonPreemptive)
	if err != nil {
		return nil, err
	}
	return SolveNonPreemptiveLB(ctx, ix, opts, bound)
}

// SolveNonPreemptiveLB is SolveNonPreemptive given the instance's
// non-preemptive class index and its certified bound ix.LowerBound(), for
// callers that built both already.
func SolveNonPreemptiveLB(ctx context.Context, ix *core.ClassIndex, opts Options, bound rat.R) (*NonPreemptiveResult, error) {
	sched, makespan, rep, err := runScheme(ctx, ix, opts, npScheme, bound)
	if err != nil {
		return nil, err
	}
	return &NonPreemptiveResult{Schedule: sched, Report: rep, makespan: makespan}, nil
}

// npScheme never scales: the non-preemptive optimum is integral.
var npScheme = scheme[*npGuessCtx, *core.NonPreemptiveSchedule]{
	tag: cacheNonPreemptive, variant: core.NonPreemptive,
	template: func(_ context.Context, ix *core.ClassIndex, g int64, opts Options) (guessTemplate[*npGuessCtx], error) {
		return newNPTemplate(ix, g, opts.maxConfigs()), nil
	},
	approx: func(ix *core.ClassIndex, bound rat.R) (approxPlan[*core.NonPreemptiveSchedule], error) {
		p, err := approx.PlanNonPreemptiveIndexed(ix, bound)
		if err != nil {
			return approxPlan[*core.NonPreemptiveSchedule]{}, err
		}
		return approxPlan[*core.NonPreemptiveSchedule]{
			makespan: rat.FromInt(p.Makespan()),
			realize:  func() *core.NonPreemptiveSchedule { return p.Realize().Schedule },
		}, nil
	},
	makespan: func(in *core.Instance, s *core.NonPreemptiveSchedule) rat.R {
		// Every schedule this scheme builds or realizes places its jobs
		// below min(M, n): one job per machine when M ≥ n, machines below
		// M otherwise. The loads therefore fit a slice instead of core's map.
		loads := make([]int64, min(in.M, int64(in.N())))
		var mk int64
		for j, mi := range s.Assign {
			loads[mi] += in.P[j]
			mk = max(mk, loads[mi])
		}
		return rat.FromInt(mk)
	},
	// m ≥ n: one job per machine is optimal (p_max).
	shortcut: func(in *core.Instance) *core.NonPreemptiveSchedule {
		s := &core.NonPreemptiveSchedule{Assign: make([]int64, in.N())}
		for j := range s.Assign {
			s.Assign[j] = int64(j)
		}
		return s
	},
}

// constructSchedule dissolves configurations into modules into jobs
// (Figure 4) and places small classes by round robin.
func (ctx *npGuessCtx) constructSchedule(x [][]int64) (*core.NonPreemptiveSchedule, error) {
	ix, ilp := ctx.ix, ctx.ilp
	in := ix.In
	machines, err := ilp.machineConfigs(x, in.M)
	if err != nil {
		return nil, err
	}
	pool := ilp.moduleSlots(machines)
	sched := &core.NonPreemptiveSchedule{Assign: make([]int64, in.N())}
	for j := range sched.Assign {
		sched.Assign[j] = -1
	}
	yOff := ilp.yOff()
	// queues[pi] holds the class's grouped jobs of size sizes[pi], in
	// order; next[pi] is the first one not yet placed.
	queues := make([][]*npJob, len(ctx.sizes))
	next := make([]int, len(ctx.sizes))
	for bi, u := range ctx.classes {
		if ctx.small[u] {
			continue
		}
		for pi := range queues {
			queues[pi], next[pi] = queues[pi][:0], 0
		}
		for k := range ctx.jobs[u] {
			gj := &ctx.jobs[u][k]
			pi, _ := slices.BinarySearch(ctx.sizes, gj.units)
			queues[pi] = append(queues[pi], gj)
		}
		for mi2, mv := range ctx.modules {
			for k := x[bi][yOff+mi2]; k > 0; k-- {
				machineIdx, err := pool.take(ilp.yKind[mi2])
				if err != nil {
					return nil, err
				}
				// Dissolve the module: M_p jobs of each size p.
				for pi, cnt := range mv.counts {
					for a := int64(0); a < cnt; a++ {
						if next[pi] == len(queues[pi]) {
							return nil, fmt.Errorf("ptas: class %d ran out of size-%d jobs", u, ctx.sizes[pi])
						}
						for _, oj := range queues[pi][next[pi]].orig {
							sched.Assign[oj] = int64(machineIdx)
						}
						next[pi]++
					}
				}
			}
		}
	}
	err = ilp.dealSmall(x, ctx.classes, ctx.small, ix.Loads, machines, func(u, mi int) {
		for _, j := range ix.Jobs[u] {
			sched.Assign[j] = int64(mi)
		}
	})
	if err != nil {
		return nil, err
	}
	for j, a := range sched.Assign {
		if a < 0 {
			return nil, fmt.Errorf("ptas: job %d left unassigned", j)
		}
	}
	return sched, nil
}
