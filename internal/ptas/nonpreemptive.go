package ptas

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/big"
	"sort"

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

// npGuessCtx carries the per-guess state for the non-preemptive PTAS.
type npGuessCtx struct {
	in    *core.Instance
	g, t  int64
	cStar int64
	// grouped jobs per class and classification.
	jobs  [][]npJob
	small []bool
	// sizes: distinct rounded sizes (units) of large-class jobs.
	sizes []int64
	nUP   map[[2]int64]int64 // (class, size) -> count
	// modules: multisets over sizes with total ≤ T̄.
	modules    []moduleVec
	modSizes   []int64 // distinct module totals (units)
	configs    []configK
	hbPairs    []hbPair
	hbIndex    map[hbKey]int
	tBarUnits  int64
	smallUnits []int64 // rounded small-class load per class
}

type moduleVec struct {
	counts []int64 // parallel to sizes
	total  int64   // Σ counts·sizes (units)
}

// groupJobs performs the paper's grouping for one class: bundle jobs < δT
// into [δT, 2δT) packets; a leftover below δT merges into another job if
// one exists, else the class becomes small.
func groupJobs(in *core.Instance, jobs []int, g, t int64) ([]npJob, bool) {
	var big_, small []int
	for _, j := range jobs {
		if in.P[j]*g > t {
			big_ = append(big_, j)
		} else {
			small = append(small, j)
		}
	}
	var packets []npJob
	cur := npJob{}
	for _, j := range small {
		cur.orig = append(cur.orig, j)
		cur.load += in.P[j]
		if cur.load*g > t { // reached δT
			packets = append(packets, cur)
			cur = npJob{}
		}
	}
	out := make([]npJob, 0, len(big_)+len(packets)+1)
	for _, j := range big_ {
		out = append(out, npJob{orig: []int{j}, load: in.P[j]})
	}
	out = append(out, packets...)
	if len(cur.orig) > 0 {
		if len(out) > 0 {
			// Merge the leftover into an existing job.
			out[0].orig = append(out[0].orig, cur.orig...)
			out[0].load += cur.load
		} else {
			// The whole class is below δT: a small class.
			return []npJob{cur}, true
		}
	}
	return out, false
}

// instantiate performs the per-guess grouping, rounding and enumeration
// (all guess-dependent for this scheme; see npTemplate).
func (tm *npTemplate) instantiate(t int64) (*npGuessCtx, error) {
	in, g, limit := tm.in, tm.g, tm.limit
	ctx := &npGuessCtx{in: in, g: g, t: t}
	c := int64(in.Slots)
	ctx.tBarUnits = (g*g + 5*g + 6) * c
	ctx.cStar = (ctx.tBarUnits + g*c - 1) / (g * c) // ⌈T̄/δT⌉
	if c < ctx.cStar {
		ctx.cStar = c
	}
	byClass := tm.byClass
	ctx.jobs = make([][]npJob, len(byClass))
	ctx.small = make([]bool, len(byClass))
	ctx.smallUnits = make([]int64, len(byClass))
	ctx.nUP = make(map[[2]int64]int64)
	sizeSet := make(map[int64]bool)
	for u, js := range byClass {
		if len(js) == 0 {
			continue
		}
		grouped, isSmall := groupJobs(in, js, g, t)
		ctx.small[u] = isSmall
		if isSmall {
			// Round to δ²T/c units.
			ctx.smallUnits[u] = ceilDivBig(grouped[0].load, g*g*c, t)
			grouped[0].units = ctx.smallUnits[u]
			grouped[0].class = u
			ctx.jobs[u] = grouped
			continue
		}
		for k := range grouped {
			grouped[k].class = u
			grouped[k].units = ceilDivBig(grouped[k].load, g*g, t) * c
			sizeSet[grouped[k].units] = true
			ctx.nUP[[2]int64{int64(u), grouped[k].units}]++
		}
		ctx.jobs[u] = grouped
	}
	for s := range sizeSet {
		ctx.sizes = append(ctx.sizes, s)
	}
	sort.Slice(ctx.sizes, func(a, b int) bool { return ctx.sizes[a] < ctx.sizes[b] })
	// Enumerate modules: multisets of sizes with total ≤ T̄.
	var err error
	modConfigs, err := enumerateConfigs(ctx.sizes, ctx.tBarUnits, int64(1)<<40, limit)
	if err != nil {
		return nil, err
	}
	modSizeSet := make(map[int64]bool)
	for _, mc := range modConfigs {
		if mc.slots == 0 {
			continue // the empty module is not a module
		}
		ctx.modules = append(ctx.modules, moduleVec{counts: mc.counts, total: mc.size})
		modSizeSet[mc.size] = true
	}
	for s := range modSizeSet {
		ctx.modSizes = append(ctx.modSizes, s)
	}
	sort.Slice(ctx.modSizes, func(a, b int) bool { return ctx.modSizes[a] < ctx.modSizes[b] })
	ctx.configs, err = enumerateConfigs(ctx.modSizes, ctx.tBarUnits, ctx.cStar, limit)
	if err != nil {
		return nil, err
	}
	ctx.hbIndex = make(map[hbKey]int)
	for ci, cc := range ctx.configs {
		k := hbKey{cc.size, cc.slots}
		idx, ok := ctx.hbIndex[k]
		if !ok {
			idx = len(ctx.hbPairs)
			ctx.hbIndex[k] = idx
			ctx.hbPairs = append(ctx.hbPairs, hbPair{h: cc.size, b: cc.slots})
		}
		ctx.hbPairs[idx].configs = append(ctx.hbPairs[idx].configs, ci)
	}
	return ctx, nil
}

// classList returns the nonempty classes in brick order.
func (ctx *npGuessCtx) classList() []int {
	var out []int
	for u := range ctx.jobs {
		if len(ctx.jobs[u]) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// buildNFold encodes the non-preemptive constraints (0)–(5). The A and B
// blocks depend on the brick's class only through the (3)-row z coefficient
// of small classes, so one large-class A block, per-rounded-load small
// blocks, and a single B block are shared across all bricks — keeping the
// augmentation engine's pointer-keyed move cache to one enumeration per
// distinct shape.
func (ctx *npGuessCtx) buildNFold() *nfold.Problem {
	m := ctx.in.M
	nM, nK, nHB, nP := len(ctx.modules), len(ctx.configs), len(ctx.hbPairs), len(ctx.sizes)
	tWidth := nK + nM + 3*nHB
	xOff, yOff, zOff, s2Off, s3Off := 0, nK, nK+nM, nK+nM+nHB, nK+nM+2*nHB
	r := 1 + len(ctx.modSizes) + 2*nHB
	s := nP + 1
	cUnits := int64(ctx.in.Slots)
	classes := ctx.classList()
	p := &nfold.Problem{N: len(classes), R: r, S: s, T: tWidth}

	largeA := make([][]int64, r)
	for k := range largeA {
		largeA[k] = make([]int64, tWidth)
	}
	for ci := range ctx.configs {
		largeA[0][xOff+ci] = 1
	}
	// (1) per module size q: Σ K_q x − Σ_{Λ(M)=q} y_M = 0.
	for qi, q := range ctx.modSizes {
		row := largeA[1+qi]
		for ci, cc := range ctx.configs {
			if cc.counts[qi] != 0 {
				row[xOff+ci] = cc.counts[qi]
			}
		}
		for mi, mv := range ctx.modules {
			if mv.total == q {
				row[yOff+mi] = -1
			}
		}
	}
	// (2),(3) per (h,b) pair; the (3)-row z coefficient is 1 for large
	// classes and is patched per small class below.
	for hi, hb := range ctx.hbPairs {
		row2 := largeA[1+len(ctx.modSizes)+hi]
		row3 := largeA[1+len(ctx.modSizes)+nHB+hi]
		row2[zOff+hi] = 1
		row2[s2Off+hi] = 1
		row3[s3Off+hi] = 1
		row3[zOff+hi] = 1
		for _, ci := range hb.configs {
			row2[xOff+ci] = hb.b - cUnits
			row3[xOff+ci] = hb.h - ctx.tBarUnits
		}
	}
	smallAs := make(map[int64][][]int64)
	smallABlock := func(units int64) [][]int64 {
		if a, ok := smallAs[units]; ok {
			return a
		}
		a := make([][]int64, r)
		copy(a, largeA)
		for hi := 0; hi < nHB; hi++ {
			ri := 1 + len(ctx.modSizes) + nHB + hi
			row := append([]int64(nil), largeA[ri]...)
			row[zOff+hi] = units
			a[ri] = row
		}
		smallAs[units] = a
		return a
	}

	sharedB := make([][]int64, s)
	for k := range sharedB {
		sharedB[k] = make([]int64, tWidth)
	}
	// (4) per size p: Σ_M M_p y_M = (1-ξ_u) n^u_p.
	for pi := range ctx.sizes {
		for mi, mv := range ctx.modules {
			if mv.counts[pi] != 0 {
				sharedB[pi][yOff+mi] = mv.counts[pi]
			}
		}
	}
	// (5) Σ z = ξ_u.
	for hi := range ctx.hbPairs {
		sharedB[nP][zOff+hi] = 1
	}
	zeroRow := make([]int64, tWidth)
	smallLRHS := make([]int64, s)
	smallLRHS[nP] = 1

	for _, u := range classes {
		if ctx.small[u] {
			p.A = append(p.A, smallABlock(ctx.smallUnits[u]))
			p.LocalRHS = append(p.LocalRHS, smallLRHS)
		} else {
			p.A = append(p.A, largeA)
			lrhs := make([]int64, s)
			for pi, sz := range ctx.sizes {
				lrhs[pi] = ctx.nUP[[2]int64{int64(u), sz}]
			}
			p.LocalRHS = append(p.LocalRHS, lrhs)
		}
		p.B = append(p.B, sharedB)

		lower := zeroRow
		upper := make([]int64, tWidth)
		for ci := range ctx.configs {
			upper[xOff+ci] = m
		}
		if !ctx.small[u] {
			var totJobs int64
			for pi := range ctx.sizes {
				totJobs += ctx.nUP[[2]int64{int64(u), ctx.sizes[pi]}]
			}
			for mi := range ctx.modules {
				upper[yOff+mi] = totJobs
			}
		}
		for hi := range ctx.hbPairs {
			if ctx.small[u] {
				upper[zOff+hi] = 1
			}
			upper[s2Off+hi] = cUnits * m
			upper[s3Off+hi] = ctx.tBarUnits * m
		}
		p.Lower = append(p.Lower, lower)
		p.Upper = append(p.Upper, upper)
		p.Obj = append(p.Obj, zeroRow)
	}
	p.GlobalRHS = make([]int64, r)
	p.GlobalRHS[0] = m
	return p
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
	bound, err := certifiedBound(in, core.NonPreemptive)
	if err != nil {
		return nil, err
	}
	return SolveNonPreemptiveLB(ctx, in, opts, bound)
}

// SolveNonPreemptiveLB is SolveNonPreemptive given the instance's certified
// bound core.LowerBoundR(in, core.NonPreemptive), for callers that
// computed it already.
func SolveNonPreemptiveLB(ctx context.Context, in *core.Instance, opts Options, bound rat.R) (*NonPreemptiveResult, error) {
	sched, makespan, rep, err := runScheme(ctx, in, opts, npScheme, bound)
	if err != nil {
		return nil, err
	}
	return &NonPreemptiveResult{Schedule: sched, Report: rep, makespan: makespan}, nil
}

// npScheme never scales: the non-preemptive optimum is integral.
var npScheme = scheme[*npGuessCtx, *core.NonPreemptiveSchedule]{
	tag: cacheNonPreemptive, variant: core.NonPreemptive,
	template: func(in *core.Instance, g int64, opts Options) (guessTemplate[*npGuessCtx], error) {
		return newNPTemplate(in, g, opts.maxConfigs()), nil
	},
	approx: func(in *core.Instance, bound rat.R) (approxPlan[*core.NonPreemptiveSchedule], error) {
		p, err := approx.PlanNonPreemptive(in, bound)
		if err != nil {
			return approxPlan[*core.NonPreemptiveSchedule]{}, err
		}
		return approxPlan[*core.NonPreemptiveSchedule]{
			makespan: rat.FromInt(p.Makespan()),
			realize:  func() *core.NonPreemptiveSchedule { return p.Realize().Schedule },
		}, nil
	},
	makespan: func(in *core.Instance, s *core.NonPreemptiveSchedule) rat.R {
		return rat.FromInt(s.Makespan(in))
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

// digest keys the feasibility cache (see groupedDigest).
func (ctx *npGuessCtx) digest() [sha256.Size]byte {
	return groupedDigest(ctx.in.M, ctx.in.Slots, ctx.g, ctx.sizes, ctx.classList(), ctx.small, ctx.smallUnits, ctx.nUP)
}

// constructSchedule dissolves configurations into modules into jobs
// (Figure 4) and places small classes by round robin.
func (ctx *npGuessCtx) constructSchedule(x [][]int64) (*core.NonPreemptiveSchedule, error) {
	in := ctx.in
	nM, nK, nHB := len(ctx.modules), len(ctx.configs), len(ctx.hbPairs)
	xOff, yOff, zOff := 0, nK, nK+nM
	classes := ctx.classList()
	xc := make([]int64, nK)
	for bi := range classes {
		for ci := 0; ci < nK; ci++ {
			xc[ci] += x[bi][xOff+ci]
		}
	}
	type machine struct {
		config    int
		slotSizes []int64 // module-size units per slot
	}
	var machines []machine
	for ci, cnt := range xc {
		for k := int64(0); k < cnt; k++ {
			m := machine{config: ci}
			for qi, q := range ctx.configs[ci].counts {
				for a := int64(0); a < q; a++ {
					m.slotSizes = append(m.slotSizes, ctx.modSizes[qi])
				}
			}
			machines = append(machines, m)
		}
	}
	if int64(len(machines)) != in.M {
		return nil, fmt.Errorf("ptas: configuration counts cover %d machines, want %d", len(machines), in.M)
	}
	// Slot instances per module size.
	slotsBySize := make(map[int64][]int) // size -> machine indices (one per slot)
	for mi := range machines {
		for _, s := range machines[mi].slotSizes {
			slotsBySize[s] = append(slotsBySize[s], mi)
		}
	}
	cursor := make(map[int64]int)
	// Per (class, size) queues of grouped jobs.
	queues := make(map[[2]int64][]npJob)
	for _, u := range classes {
		if ctx.small[u] {
			continue
		}
		for _, gj := range ctx.jobs[u] {
			key := [2]int64{int64(u), gj.units}
			queues[key] = append(queues[key], gj)
		}
	}
	sched := &core.NonPreemptiveSchedule{Assign: make([]int64, in.N())}
	for j := range sched.Assign {
		sched.Assign[j] = -1
	}
	for bi, u := range classes {
		if ctx.small[u] {
			continue
		}
		for mi2, mv := range ctx.modules {
			count := x[bi][yOff+mi2]
			for k := int64(0); k < count; k++ {
				lst := slotsBySize[mv.total]
				if cursor[mv.total] >= len(lst) {
					return nil, fmt.Errorf("ptas: module demand exceeds slots of size %d", mv.total)
				}
				machineIdx := lst[cursor[mv.total]]
				cursor[mv.total]++
				// Dissolve the module: M_p jobs of each size p.
				for pi, cnt := range mv.counts {
					key := [2]int64{int64(u), ctx.sizes[pi]}
					for a := int64(0); a < cnt; a++ {
						q := queues[key]
						if len(q) == 0 {
							return nil, fmt.Errorf("ptas: class %d ran out of size-%d jobs", u, ctx.sizes[pi])
						}
						gj := q[0]
						queues[key] = q[1:]
						for _, oj := range gj.orig {
							sched.Assign[oj] = int64(machineIdx)
						}
					}
				}
			}
		}
	}
	// Small classes: round robin within (h,b) machine groups.
	groupMachines := make([][]int, nHB)
	for mi := range machines {
		cc := ctx.configs[machines[mi].config]
		hi := ctx.hbIndex[hbKey{cc.size, cc.slots}]
		groupMachines[hi] = append(groupMachines[hi], mi)
	}
	type smallAssign struct{ u, hb int }
	var smalls []smallAssign
	loads := in.ClassLoads()
	for bi, u := range classes {
		if !ctx.small[u] {
			continue
		}
		chosen := -1
		for hi := 0; hi < nHB; hi++ {
			if x[bi][zOff+hi] == 1 {
				chosen = hi
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("ptas: small class %d has no (h,b) assignment", u)
		}
		smalls = append(smalls, smallAssign{u, chosen})
	}
	sort.SliceStable(smalls, func(a, b int) bool { return loads[smalls[a].u] > loads[smalls[b].u] })
	next := make([]int, nHB)
	byClass := in.ClassJobs()
	for _, sa := range smalls {
		ms := groupMachines[sa.hb]
		if len(ms) == 0 {
			return nil, fmt.Errorf("ptas: small class %d assigned to empty machine group", sa.u)
		}
		mi := ms[next[sa.hb]%len(ms)]
		next[sa.hb]++
		for _, j := range byClass[sa.u] {
			sched.Assign[j] = int64(mi)
		}
	}
	for j, a := range sched.Assign {
		if a < 0 {
			return nil, fmt.Errorf("ptas: job %d left unassigned", j)
		}
	}
	return sched, nil
}
