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

// The preemptive PTAS (Section 4.3). Time is divided into |L| layers of
// height δ²T; in a well-structured schedule every piece of a large-class
// job fills whole (machine, layer) slots. Modules are 0-1 vectors over
// layers; configurations choose disjoint modules.
//
// Implementation deviation (see the package comment): modules are
// restricted to contiguous layer intervals. The paper's full module set has
// 2^|L| elements and its configuration set is a set-partition family, which
// is not enumerable for any useful δ; intervals keep the scheme sound
// (every output is validated) and complete on all tested workloads.
//
// Units: δ²T/c as everywhere; a layer is c units tall; T̄ is rounded up to
// (g²+3g+2)·c units ≥ (1+3δ)(1+δ²)T, keeping the error O(δ).

// interval is a module: layers [lo, hi) (0-based, half-open).
type interval struct{ lo, hi int }

func (iv interval) length() int { return iv.hi - iv.lo }

// preGuessCtx carries the per-guess state for the preemptive PTAS.
type preGuessCtx struct {
	in     *core.Instance
	g, t   int64
	layers int
	cStar  int64
	jobs   [][]npJob
	small  []bool
	// sizes: distinct rounded large-job sizes (units, multiples of c);
	// wp[size] = pieces (layers) per job of that size.
	sizes      []int64
	nUP        map[[2]int64]int64
	smallUnits []int64
	modules    []interval
	configs    []preConfig
	hbPairs    []hbPair
	hbIndex    map[hbKey]int
	tBarUnits  int64
	tm         *preTemplate
}

// preConfig is a configuration: disjoint intervals, at most c* of them.
type preConfig struct {
	intervals []int // indices into modules
	size      int64 // total layers covered × c (units)
	slots     int64
}

// enumerateIntervalConfigs lists sets of pairwise disjoint intervals (by
// index) with at most maxSlots members, including the empty configuration.
func enumerateIntervalConfigs(modules []interval, maxSlots int64, limit int) ([]preConfig, error) {
	// Order intervals by start for the sweep.
	idx := make([]int, len(modules))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := modules[idx[a]], modules[idx[b]]
		if ia.lo != ib.lo {
			return ia.lo < ib.lo
		}
		return ia.hi < ib.hi
	})
	var out []preConfig
	var cur []int
	var rec func(pos int, lastEnd int, slots int64, covered int64) error
	rec = func(pos int, lastEnd int, slots int64, covered int64) error {
		if len(out) > limit {
			return fmt.Errorf("ptas: preemptive configuration count exceeds limit %d; increase epsilon or MaxConfigs", limit)
		}
		out = append(out, preConfig{
			intervals: append([]int(nil), cur...),
			size:      covered,
			slots:     slots,
		})
		if slots == maxSlots {
			return nil
		}
		for k := pos; k < len(idx); k++ {
			iv := modules[idx[k]]
			if iv.lo < lastEnd {
				continue
			}
			cur = append(cur, idx[k])
			if err := rec(k+1, iv.hi, slots+1, covered+int64(iv.length())); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	if err := rec(0, 0, 0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// instantiate performs the per-guess grouping and rounding; the layer
// geometry and interval-configuration enumeration come from the template.
func (tm *preTemplate) instantiate(t int64) (*preGuessCtx, error) {
	in, g := tm.in, tm.g
	ctx := &preGuessCtx{in: in, g: g, t: t, tm: tm}
	c := int64(in.Slots)
	ctx.tBarUnits = tm.tBarUnits
	ctx.layers = tm.layers
	ctx.cStar = tm.cStar
	ctx.modules = tm.modules
	ctx.configs = tm.configs
	ctx.hbPairs = tm.hbPairs
	ctx.hbIndex = tm.hbIndex
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
	// Reject guesses for which a single job would not fit (w_p > |L|).
	for _, s := range ctx.sizes {
		if s/c > int64(ctx.layers) {
			return nil, errGuessTooSmall
		}
	}
	return ctx, nil
}

func (ctx *preGuessCtx) classList() []int {
	var out []int
	for u := range ctx.jobs {
		if len(ctx.jobs[u]) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// buildNFold encodes constraints (0)–(6) of the preemptive scheme. As in
// the other schemes, the blocks depend on the brick's class only through
// the (3)-row z coefficient of small classes, so one large-class A block,
// per-rounded-load small blocks, and one B block are shared by all bricks —
// and, because the block values reference sizes only by index, by every
// probe whose distinct-size count matches (see preTemplate.blocksFor).
func (ctx *preGuessCtx) buildNFold() *nfold.Problem {
	m := ctx.in.M
	nM, nK, nHB, nP, nL := len(ctx.modules), len(ctx.configs), len(ctx.hbPairs), len(ctx.sizes), ctx.layers
	// Brick layout: [x_K | y_M | z_hb | s2_hb | s3_hb | a_{p,ℓ}].
	tWidth := nK + nM + 3*nHB + nP*nL
	xOff, yOff, zOff, s2Off, s3Off, aOff := 0, nK, nK+nM, nK+nM+nHB, nK+nM+2*nHB, nK+nM+3*nHB
	r := 1 + nM + 2*nHB
	s := nP + nL + 1
	cUnits := int64(ctx.in.Slots)
	classes := ctx.classList()
	p := &nfold.Problem{N: len(classes), R: r, S: s, T: tWidth}
	bl := ctx.tm.blocksFor(nP)

	for _, u := range classes {
		if ctx.small[u] {
			p.A = append(p.A, ctx.tm.smallABlock(nP, ctx.smallUnits[u]))
			p.LocalRHS = append(p.LocalRHS, bl.smallLRHS)
		} else {
			p.A = append(p.A, bl.largeA)
			lrhs := make([]int64, s)
			for pi, sz := range ctx.sizes {
				wp := sz / cUnits
				lrhs[pi] = wp * ctx.nUP[[2]int64{int64(u), sz}]
			}
			p.LocalRHS = append(p.LocalRHS, lrhs)
		}
		p.B = append(p.B, bl.sharedB)

		lower := bl.zeroRow
		upper := make([]int64, tWidth)
		for ci := range ctx.configs {
			upper[xOff+ci] = m
		}
		if !ctx.small[u] {
			var totPieces int64
			for pi, sz := range ctx.sizes {
				totPieces += (sz / cUnits) * ctx.nUP[[2]int64{int64(u), ctx.sizes[pi]}]
			}
			for mi := range ctx.modules {
				upper[yOff+mi] = totPieces
			}
			// a_{p,ℓ} ≤ n^u_p: Theorem 18's greedy needs at most one slot
			// per job per layer.
			for pi, sz := range ctx.sizes {
				np := ctx.nUP[[2]int64{int64(u), sz}]
				for l := 0; l < nL; l++ {
					upper[aOff+pi*nL+l] = np
				}
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
		p.Obj = append(p.Obj, bl.zeroRow)
	}
	p.GlobalRHS = make([]int64, r)
	p.GlobalRHS[0] = m
	return p
}

// PreemptiveResult is the preemptive PTAS output.
type PreemptiveResult struct {
	Schedule *core.PreemptiveSchedule
	Report   Report
	makespan rat.R
}

// Makespan returns the schedule makespan, which the solve computed once.
func (r *PreemptiveResult) Makespan() *big.Rat { return r.makespan.Rat() }

// SolvePreemptive runs the preemptive PTAS (Theorem 19, with the interval-
// module restriction documented above). The context cancels the
// makespan-guess search — including in-flight N-fold solves — so ctx.Err()
// surfaces within one augmentation iteration or branch-and-bound node.
func SolvePreemptive(ctx context.Context, in *core.Instance, opts Options) (*PreemptiveResult, error) {
	bound, err := certifiedBound(in, core.Preemptive)
	if err != nil {
		return nil, err
	}
	return SolvePreemptiveLB(ctx, in, opts, bound)
}

// SolvePreemptiveLB is SolvePreemptive given the instance's certified bound
// core.LowerBoundR(in, core.Preemptive), for callers that computed it
// already.
func SolvePreemptiveLB(ctx context.Context, in *core.Instance, opts Options, bound rat.R) (*PreemptiveResult, error) {
	sched, makespan, rep, err := runScheme(ctx, in, opts, preScheme, bound)
	if err != nil {
		return nil, err
	}
	return &PreemptiveResult{Schedule: sched, Report: rep, makespan: makespan}, nil
}

// preScheme is the Theorem 19 scheme; its instantiate rejects a guess below
// the largest job with errGuessTooSmall.
var preScheme = scheme[*preGuessCtx, *core.PreemptiveSchedule]{
	tag: cachePreemptive, variant: core.Preemptive,
	template: func(in *core.Instance, g int64, opts Options) (guessTemplate[*preGuessCtx], error) {
		return newPreTemplate(in, g, opts.maxConfigs())
	},
	approx: func(in *core.Instance, bound rat.R) (approxPlan[*core.PreemptiveSchedule], error) {
		p, err := approx.PlanPreemptive(in, bound)
		if err != nil {
			return approxPlan[*core.PreemptiveSchedule]{}, err
		}
		return approxPlan[*core.PreemptiveSchedule]{
			makespan: p.Makespan(),
			realize:  func() *core.PreemptiveSchedule { return p.Realize().Schedule },
		}, nil
	},
	makespan: func(_ *core.Instance, s *core.PreemptiveSchedule) rat.R { return s.MakespanR() },
	// m ≥ n: one job per machine is optimal (p_max).
	shortcut: func(in *core.Instance) *core.PreemptiveSchedule {
		sched := &core.PreemptiveSchedule{}
		for j := range in.P {
			sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
				Job: j, Machine: int64(j), Size: rat.FromInt(in.P[j]),
			})
		}
		return sched
	},
	descale: descalePreemptive,
}

// digest keys the feasibility cache (see groupedDigest).
func (ctx *preGuessCtx) digest() [sha256.Size]byte {
	return groupedDigest(ctx.in.M, ctx.in.Slots, ctx.g, ctx.sizes, ctx.classList(), ctx.small, ctx.smallUnits, ctx.nUP)
}

// constructSchedule realizes the N-fold solution: configurations onto
// machines, interval modules into configuration slots, layer slots onto
// sizes via the a-variables, jobs into layer slots greedily (Theorem 18),
// small classes into the machines' idle gaps.
func (ctx *preGuessCtx) constructSchedule(x [][]int64) (*core.PreemptiveSchedule, error) {
	in := ctx.in
	nM, nK, nHB, nL := len(ctx.modules), len(ctx.configs), len(ctx.hbPairs), ctx.layers
	xOff, yOff, zOff, aOff := 0, nK, nK+nM, nK+nM+3*nHB
	cUnits := int64(in.Slots)
	layerRat := rat.Frac(ctx.t, ctx.g*ctx.g) // δ²T
	classes := ctx.classList()
	xc := make([]int64, nK)
	for bi := range classes {
		for ci := 0; ci < nK; ci++ {
			xc[ci] += x[bi][xOff+ci]
		}
	}
	type machine struct {
		config int
		// owner[ℓ] is the class owning layer ℓ (-1 free).
		owner []int
	}
	var machines []machine
	for ci, cnt := range xc {
		for k := int64(0); k < cnt; k++ {
			m := machine{config: ci, owner: make([]int, nL)}
			for l := range m.owner {
				m.owner[l] = -1
			}
			machines = append(machines, m)
		}
	}
	if int64(len(machines)) != in.M {
		return nil, fmt.Errorf("ptas: configuration counts cover %d machines, want %d", len(machines), in.M)
	}
	// Module slot instances per module (interval) id.
	slotsByModule := make([][]int, nM) // module -> machines owning that interval slot
	for mi := range machines {
		for _, mod := range ctx.configs[machines[mi].config].intervals {
			slotsByModule[mod] = append(slotsByModule[mod], mi)
		}
	}
	cursor := make([]int, nM)
	for bi, u := range classes {
		if ctx.small[u] {
			continue
		}
		for mod := 0; mod < nM; mod++ {
			need := x[bi][yOff+mod]
			for k := int64(0); k < need; k++ {
				if cursor[mod] >= len(slotsByModule[mod]) {
					return nil, fmt.Errorf("ptas: module demand exceeds slots for interval %v", ctx.modules[mod])
				}
				mi := slotsByModule[mod][cursor[mod]]
				cursor[mod]++
				for l := ctx.modules[mod].lo; l < ctx.modules[mod].hi; l++ {
					machines[mi].owner[l] = u
				}
			}
		}
	}
	// Per class: distribute layer slots to sizes via a_{p,ℓ}, then fill
	// jobs greedily (most remaining pieces first).
	sched := &core.PreemptiveSchedule{}
	type jobState struct {
		gj        npJob
		remaining int64 // pieces still to place
		placed    []core.PreemptivePiece
	}
	for bi, u := range classes {
		if ctx.small[u] {
			continue
		}
		// Slots per layer owned by class u.
		slotAt := make([][]int, nL) // layer -> machine indices
		for mi := range machines {
			for l := 0; l < nL; l++ {
				if machines[mi].owner[l] == u {
					slotAt[l] = append(slotAt[l], mi)
				}
			}
		}
		// Job states per size.
		bySize := make(map[int64][]*jobState)
		for _, gj := range ctx.jobs[u] {
			st := &jobState{gj: gj, remaining: gj.units / cUnits}
			bySize[gj.units] = append(bySize[gj.units], st)
		}
		for l := 0; l < nL; l++ {
			used := 0
			for pi, sz := range ctx.sizes {
				cnt := x[bi][aOff+pi*nL+l]
				if cnt == 0 {
					continue
				}
				states := bySize[sz]
				// Most remaining first; each job at most once per layer.
				sort.SliceStable(states, func(a, b int) bool { return states[a].remaining > states[b].remaining })
				if cnt > int64(len(states)) {
					return nil, fmt.Errorf("ptas: layer %d wants %d size-%d jobs of class %d, have %d", l, cnt, sz, u, len(states))
				}
				for k := int64(0); k < cnt; k++ {
					st := states[k]
					if st.remaining == 0 {
						return nil, fmt.Errorf("ptas: job of class %d exhausted before its slots", u)
					}
					if used >= len(slotAt[l]) {
						return nil, fmt.Errorf("ptas: class %d out of slots at layer %d", u, l)
					}
					mi := slotAt[l][used]
					used++
					st.placed = append(st.placed, core.PreemptivePiece{
						Job:     -1, // filled after un-grouping
						Machine: int64(mi),
						Start:   layerRat.MulInt(int64(l)),
						Size:    layerRat,
					})
					st.remaining--
				}
			}
		}
		// Un-round and un-group: each grouped job's pieces (ordered by
		// start) carry its original jobs' exact mass; excess is trimmed
		// from the tail.
		for _, states := range bySize {
			for _, st := range states {
				if st.remaining != 0 {
					return nil, fmt.Errorf("ptas: job of class %d has %d unplaced pieces", u, st.remaining)
				}
				sort.SliceStable(st.placed, func(a, b int) bool {
					return st.placed[a].Start.Cmp(st.placed[b].Start) < 0
				})
				pieces, err := fillGroupedJob(in, st.gj, st.placed)
				if err != nil {
					return nil, err
				}
				sched.Pieces = append(sched.Pieces, pieces...)
			}
		}
	}
	// Small classes: round robin into (h,b) groups, then into idle gaps.
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
	// Track a per-machine cursor over free time (gaps between owned layers,
	// then the open end).
	freeCursor := make(map[int]*gapCursor)
	byClass := in.ClassJobs()
	for _, sa := range smalls {
		ms := groupMachines[sa.hb]
		if len(ms) == 0 {
			return nil, fmt.Errorf("ptas: small class %d assigned to empty machine group", sa.u)
		}
		mi := ms[next[sa.hb]%len(ms)]
		next[sa.hb]++
		gc := freeCursor[mi]
		if gc == nil {
			gc = newGapCursor(machines[mi].owner, layerRat)
			freeCursor[mi] = gc
		}
		for _, j := range byClass[sa.u] {
			remaining := rat.FromInt(in.P[j])
			for remaining.Sign() > 0 {
				start, size := gc.take(remaining)
				sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
					Job: j, Machine: int64(mi), Start: start, Size: size,
				})
				remaining = remaining.Sub(size)
			}
		}
	}
	return sched, nil
}

// fillGroupedJob cuts the grouped job's original constituents into the
// placed pieces (ordered by start), trimming the rounded excess from the
// tail piece.
func fillGroupedJob(in *core.Instance, gj npJob, placed []core.PreemptivePiece) ([]core.PreemptivePiece, error) {
	var out []core.PreemptivePiece
	pi := 0
	var room, start rat.R
	for _, oj := range gj.orig {
		remaining := rat.FromInt(in.P[oj])
		for remaining.Sign() > 0 {
			for room.Sign() == 0 {
				if pi >= len(placed) {
					return nil, fmt.Errorf("ptas: grouped job of class %d ran out of placed pieces", gj.class)
				}
				room = placed[pi].Size
				start = placed[pi].Start
				pi++
			}
			take := remaining
			if take.Cmp(room) > 0 {
				take = room
			}
			out = append(out, core.PreemptivePiece{
				Job:     oj,
				Machine: placed[pi-1].Machine,
				Start:   start,
				Size:    take,
			})
			start = start.Add(take)
			room = room.Sub(take)
			remaining = remaining.Sub(take)
		}
	}
	return out, nil
}

// gapCursor walks a machine's free time: gaps between owned layers first,
// then the open-ended region after the last layer.
type gapCursor struct {
	gaps []struct{ start, end rat.R }
	gi   int
	pos  rat.R
	open rat.R // start of the open-ended region
}

func newGapCursor(owner []int, layerRat rat.R) *gapCursor {
	gc := &gapCursor{}
	nL := len(owner)
	last := nL
	for last > 0 && owner[last-1] < 0 {
		last--
	}
	for l := 0; l < last; l++ {
		if owner[l] < 0 {
			s := layerRat.MulInt(int64(l))
			e := layerRat.MulInt(int64(l + 1))
			if len(gc.gaps) > 0 && gc.gaps[len(gc.gaps)-1].end.Cmp(s) == 0 {
				gc.gaps[len(gc.gaps)-1].end = e
			} else {
				gc.gaps = append(gc.gaps, struct{ start, end rat.R }{s, e})
			}
		}
	}
	gc.open = layerRat.MulInt(int64(last))
	if len(gc.gaps) > 0 {
		gc.pos = gc.gaps[0].start
	}
	return gc
}

// take returns the next free (start, size) with size ≤ want.
func (gc *gapCursor) take(want rat.R) (rat.R, rat.R) {
	for gc.gi < len(gc.gaps) {
		g := gc.gaps[gc.gi]
		if gc.pos.Cmp(g.start) < 0 {
			gc.pos = g.start
		}
		room := g.end.Sub(gc.pos)
		if room.Sign() <= 0 {
			gc.gi++
			if gc.gi < len(gc.gaps) {
				gc.pos = gc.gaps[gc.gi].start
			}
			continue
		}
		size := want
		if size.Cmp(room) > 0 {
			size = room
		}
		start := gc.pos
		gc.pos = gc.pos.Add(size)
		return start, size
	}
	start := gc.open
	gc.open = gc.open.Add(want)
	return start, want
}
