package ptas

import (
	"context"
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

// preGuessCtx carries the per-guess state for the preemptive PTAS: the
// grouped instance; the layer geometry and enumerations are the template's.
type preGuessCtx struct {
	groupedGuess
	tm *preTemplate
}

// preConfig is a configuration: disjoint intervals, at most c* of them.
type preConfig struct {
	intervals []int // indices into modules
	size      int64 // total layers covered
	slots     int64
}

// intervalSets are configurations of disjoint interval modules, each
// interval its own module kind. Their Λ(K) is the covered layer count, not
// δ²T/c units: a layer is c units tall.
type intervalSets []preConfig

func (ks intervalSets) len() int                 { return len(ks) }
func (ks intervalSets) hb(ci int) (int64, int64) { return ks[ci].size, ks[ci].slots }
func (ks intervalSets) slots(ci int, f func(int, int64)) {
	for _, mi := range ks[ci].intervals {
		f(mi, 1)
	}
}

// enumerateIntervalConfigs lists sets of pairwise disjoint intervals (by
// index) with at most maxSlots members, including the empty configuration.
// It polls ctx every pollEvery configurations.
func enumerateIntervalConfigs(ctx context.Context, modules []interval, maxSlots int64, limit int) ([]preConfig, error) {
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
	steps := 0
	var rec func(pos int, lastEnd int, slots int64, covered int64) error
	rec = func(pos int, lastEnd int, slots int64, covered int64) error {
		if len(out) > limit {
			return fmt.Errorf("ptas: preemptive configuration count exceeds limit %d; increase epsilon or MaxConfigs", limit)
		}
		if err := poll(ctx, &steps); err != nil {
			return err
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
func (tm *preTemplate) instantiate(_ context.Context, t int64) (*preGuessCtx, error) {
	ctx := &preGuessCtx{groupedGuess: groupGuess(tm.ix, tm.g, t), tm: tm}
	// Reject guesses for which a single job would not fit (w_p > |L|).
	for _, s := range ctx.sizes {
		if s/int64(tm.ix.In.Slots) > int64(tm.layers) {
			return nil, errGuessTooSmall
		}
	}
	return ctx, nil
}

// buildNFold encodes constraints (0)–(6) of the preemptive scheme over the
// template's blocks for this guess's size count, which every probe with the
// same count shares (see preTemplate.blocksFor).
func (ctx *preGuessCtx) buildNFold(solveCtx context.Context) (*nfold.Problem, error) {
	nP, nL := len(ctx.sizes), ctx.tm.layers
	cUnits := int64(ctx.ix.In.Slots)
	bl, err := ctx.tm.blocksFor(solveCtx, nP)
	if err != nil {
		return nil, err
	}
	aOff := bl.extraOff()
	return bl.build(solveCtx, ctx.ix.In.M, ctx.classes, ctx.small, ctx.smallUnits, func(u int, upper []int64) ([]int64, int64) {
		lrhs := make([]int64, nP+nL+1)
		var totPieces int64
		for pi, sz := range ctx.sizes {
			np := ctx.count(u, sz)
			lrhs[pi] = (sz / cUnits) * np
			totPieces += lrhs[pi]
			// a_{p,ℓ} ≤ n^u_p: Theorem 18's greedy needs at most one slot
			// per job per layer.
			for l := 0; l < nL; l++ {
				upper[aOff+pi*nL+l] = np
			}
		}
		return lrhs, totPieces
	})
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
	ix, bound, err := certifiedBound(in, core.Preemptive)
	if err != nil {
		return nil, err
	}
	return SolvePreemptiveLB(ctx, ix, opts, bound)
}

// SolvePreemptiveLB is SolvePreemptive given the instance's preemptive
// class index and its certified bound ix.LowerBound(), for callers that
// built both already.
func SolvePreemptiveLB(ctx context.Context, ix *core.ClassIndex, opts Options, bound rat.R) (*PreemptiveResult, error) {
	sched, makespan, rep, err := runScheme(ctx, ix, opts, preScheme, bound)
	if err != nil {
		return nil, err
	}
	return &PreemptiveResult{Schedule: sched, Report: rep, makespan: makespan}, nil
}

// preScheme is the Theorem 19 scheme; its instantiate rejects a guess below
// the largest job with errGuessTooSmall.
var preScheme = scheme[*preGuessCtx, *core.PreemptiveSchedule]{
	tag: cachePreemptive, variant: core.Preemptive,
	template: func(ctx context.Context, ix *core.ClassIndex, g int64, opts Options) (guessTemplate[*preGuessCtx], error) {
		return newPreTemplate(ctx, ix, g, opts.maxConfigs())
	},
	approx: func(ix *core.ClassIndex, bound rat.R) (approxPlan[*core.PreemptiveSchedule], error) {
		p, err := approx.PlanPreemptiveIndexed(ix, bound)
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

// constructSchedule realizes the N-fold solution: configurations onto
// machines, interval modules into configuration slots, layer slots onto
// sizes via the a-variables, jobs into layer slots greedily (Theorem 18),
// small classes into the machines' idle gaps.
func (ctx *preGuessCtx) constructSchedule(x [][]int64) (*core.PreemptiveSchedule, error) {
	in, ilp := ctx.ix.In, ctx.tm.ilp
	nL := ctx.tm.layers
	yOff, aOff := ilp.yOff(), ilp.extraOff()
	cUnits := int64(in.Slots)
	layerRat := rat.Frac(ctx.t, ctx.g*ctx.g) // δ²T
	machines, err := ilp.machineConfigs(x, in.M)
	if err != nil {
		return nil, err
	}
	// owner[mi][ℓ] is the class owning layer ℓ of machine mi (-1 free).
	owner := make([][]int, len(machines))
	for mi := range owner {
		owner[mi] = make([]int, nL)
		for l := range owner[mi] {
			owner[mi][l] = -1
		}
	}
	pool := ilp.moduleSlots(machines)
	for bi, u := range ctx.classes {
		if ctx.small[u] {
			continue
		}
		for mod, iv := range ctx.tm.modules {
			for k := x[bi][yOff+mod]; k > 0; k-- {
				mi, err := pool.take(mod)
				if err != nil {
					return nil, err
				}
				for l := iv.lo; l < iv.hi; l++ {
					owner[mi][l] = u
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
	for bi, u := range ctx.classes {
		if ctx.small[u] {
			continue
		}
		// Slots per layer owned by class u.
		slotAt := make([][]int, nL) // layer -> machine indices
		for mi := range owner {
			for l := 0; l < nL; l++ {
				if owner[mi][l] == u {
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
		// from the tail. Sizes go in ascending order, so the pieces do not
		// depend on map iteration.
		for _, sz := range ctx.sizes {
			for _, st := range bySize[sz] {
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
	// Small classes: round robin into (h,b) groups, then into idle gaps,
	// with a per-machine cursor over free time (gaps between owned layers,
	// then the open end).
	freeCursor := make(map[int]*gapCursor)
	err = ilp.dealSmall(x, ctx.classes, ctx.small, ctx.ix.Loads, machines, func(u, mi int) {
		gc := freeCursor[mi]
		if gc == nil {
			gc = newGapCursor(owner[mi], layerRat)
			freeCursor[mi] = gc
		}
		for _, j := range ctx.ix.Jobs[u] {
			remaining := rat.FromInt(in.P[j])
			for remaining.Sign() > 0 {
				start, size := gc.take(remaining)
				sched.Pieces = append(sched.Pieces, core.PreemptivePiece{
					Job: j, Machine: int64(mi), Start: start, Size: size,
				})
				remaining = remaining.Sub(size)
			}
		}
	})
	if err != nil {
		return nil, err
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
