package ptas

import (
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/nfold"
	"ccsched/internal/rat"
)

// The splittable PTAS (Section 4.1). Working in units of δ²T/c makes every
// quantity integral regardless of T's divisibility: with δ = 1/g,
//
//	T        = g²·c units,
//	T̄ = (1+4δ)T = (g²+4g)·c units,
//	module sizes = ℓ·c units for ℓ ∈ {g, …, g²+4g},
//	large class loads round up to multiples of c (δ²T),
//	small class loads round up to multiples of 1 (δ²T/c).
//
// Brick u of the N-fold holds x^u_K (configuration counts), y^u_q (module
// multiplicities) and z^u_{h,b} (small-class placement) plus two slack
// columns per (h,b) pair, exactly constraints (0)–(5) of the paper.

// splitGuessCtx carries everything derived from one makespan guess. The
// enumerations and blocks come from the search's shared splitTemplate; only
// the classification and rounded loads are per-guess.
type splitGuessCtx struct {
	ix *core.ClassIndex
	g  int64 // 1/δ
	t  int64 // the guess T
	m  int64 // machines the N-fold covers (fewer on the huge-m path)
	// large/small classification (ξ_u = 1 iff small).
	small  []bool
	pUnits []int64 // rounded class load in units of δ²T/c
	tm     *splitTemplate
}

// configK is a configuration: a multiset of module kinds.
type configK struct {
	counts []int64 // parallel to the module kinds: multiplicity per kind
	size   int64   // Σ size·count
	slots  int64   // Σ count
}

// enumerateConfigs lists all multisets of the module sizes with total size
// at most maxSize and at most maxSlots elements (including the empty
// configuration, which idle machines use). It polls ctx every pollEvery
// steps.
func enumerateConfigs(ctx context.Context, modules []int64, maxSize, maxSlots int64, limit int) ([]configK, error) {
	var out []configK
	counts := make([]int64, len(modules))
	steps := 0
	var rec func(idx int, size, slots int64) error
	rec = func(idx int, size, slots int64) error {
		if len(out) > limit {
			return fmt.Errorf("ptas: configuration count exceeds limit %d; increase epsilon or MaxConfigs", limit)
		}
		if err := poll(ctx, &steps); err != nil {
			return err
		}
		if idx == len(modules) {
			cc := configK{counts: append([]int64(nil), counts...), size: size, slots: slots}
			out = append(out, cc)
			return nil
		}
		for k := int64(0); ; k++ {
			ns, nl := size+k*modules[idx], slots+k
			if ns > maxSize || nl > maxSlots {
				break
			}
			counts[idx] = k
			if err := rec(idx+1, ns, nl); err != nil {
				return err
			}
		}
		counts[idx] = 0
		return nil
	}
	if err := rec(0, 0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// ceilDivBig returns ⌈a·b/d⌉ for a, b ≥ 0 and d > 0 without overflowing
// the product: in 128 bits when the quotient fits 64 bits, else in big
// arithmetic (whose Int64 keeps the low 64 bits, as the 128-bit path does).
func ceilDivBig(a, b, d int64) int64 {
	if a >= 0 && b >= 0 && d > 0 {
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		if hi < uint64(d) {
			q, r := bits.Div64(hi, lo, uint64(d))
			if r != 0 {
				q++
			}
			return int64(q)
		}
	}
	num := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	den := big.NewInt(d)
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}

// buildNFold encodes constraints (0)–(5) for the guess over the template's
// shared blocks, so identical bricks are pointer-identical across the whole
// search.
func (ctx *splitGuessCtx) buildNFold(solveCtx context.Context) (*nfold.Problem, error) {
	gc := ctx.g * int64(ctx.ix.In.Slots)
	bl, err := ctx.tm.sharedBlocks(solveCtx)
	if err != nil {
		return nil, err
	}
	return bl.build(solveCtx, ctx.m, ctx.tm.classes, ctx.small, ctx.pUnits, func(u int, _ []int64) ([]int64, int64) {
		// Enough modules to cover the class alone.
		return []int64{ctx.pUnits[u], 0}, ctx.pUnits[u]/gc + 1
	})
}

// SplitResult is the splittable PTAS output.
type SplitResult struct {
	Schedule *core.SplitSchedule
	Compact  *core.CompactSplitSchedule
	Report   Report
	// makespan is the schedule's makespan: summed by the construction
	// when a probe built the schedule, set by the solve when it returns.
	makespan rat.R
}

// Makespan returns the schedule makespan, which the solve computed once.
func (r *SplitResult) Makespan() *big.Rat { return r.makespan.Rat() }

// DefaultHugeMThreshold is the default machine count above which the
// splittable PTAS switches to the Theorem 11 treatment
// (trivial-configuration preprocessing + compact output). Override per call
// via Options.HugeMThreshold; like the approx options, this is a per-call
// value rather than a mutable package global so concurrent solves do not
// race.
const DefaultHugeMThreshold int64 = 1 << 16

// SolveSplittable runs the splittable PTAS (Theorem 10, and Theorem 11's
// extension for machine counts beyond the huge-m threshold). The context
// cancels the makespan-guess search — including in-flight N-fold solves,
// which poll it at iteration boundaries — making ctx.Err() surface within
// one augmentation iteration or branch-and-bound node.
func SolveSplittable(ctx context.Context, in *core.Instance, opts Options) (*SplitResult, error) {
	ix, bound, err := certifiedBound(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	return SolveSplittableLB(ctx, ix, opts, bound)
}

// SolveSplittableLB is SolveSplittable given the instance's splittable
// class index and its certified bound ix.LowerBound(), for callers that
// built both already.
func SolveSplittableLB(ctx context.Context, ix *core.ClassIndex, opts Options, bound rat.R) (*SplitResult, error) {
	var res *SplitResult
	var makespan rat.R
	var rep Report
	var err error
	if ix.In.M > opts.hugeMThreshold() {
		res, makespan, rep, err = runScheme(ctx, ix, opts, hugeScheme, bound)
	} else {
		res, makespan, rep, err = runScheme(ctx, ix, opts, splitScheme, bound)
	}
	if err != nil {
		return nil, err
	}
	res.Report, res.makespan = rep, makespan
	return res, nil
}

// splitScheme is the Theorem 10 scheme. Above the explicit-machine limit the
// 2-approximation is compact-only, and so are its fallback and best-of exits.
var splitScheme = scheme[*splitGuessCtx, *SplitResult]{
	tag: cacheSplit, variant: core.Splittable,
	template: func(ctx context.Context, ix *core.ClassIndex, g int64, opts Options) (guessTemplate[*splitGuessCtx], error) {
		return newSplitTemplate(ctx, ix, g, opts.maxConfigs())
	},
	approx: func(ix *core.ClassIndex, bound rat.R) (approxPlan[*SplitResult], error) {
		return planSplit(ix, bound, func(r *approx.SplitResult) *SplitResult {
			return &SplitResult{Schedule: r.Explicit, Compact: r.Compact}
		})
	},
	makespan: splitMakespan,
	descale:  descaleSplit,
}

// planSplit plans the 2-approximation for the splittable schemes; wrap
// keeps the parts of its schedule a scheme returns.
func planSplit(ix *core.ClassIndex, bound rat.R, wrap func(*approx.SplitResult) *SplitResult) (approxPlan[*SplitResult], error) {
	p, err := approx.PlanSplittableIndexed(ix, approx.Options{}, bound)
	if err != nil {
		return approxPlan[*SplitResult]{}, err
	}
	return approxPlan[*SplitResult]{
		makespan: p.Makespan(),
		realize:  func() *SplitResult { return wrap(p.Realize()) },
	}, nil
}

// splitMakespan reads the makespan a probe's construction summed; a
// realized 2-approximation carries none and is measured on its schedule.
func splitMakespan(_ *core.Instance, r *SplitResult) rat.R {
	if r.makespan.Sign() > 0 {
		return r.makespan
	}
	return r.Compact.MakespanR()
}

// digest keys the feasibility cache (see splitDigest).
func (ctx *splitGuessCtx) digest() [sha256.Size]byte {
	return splitDigest(ctx.m, ctx.ix.In.Slots, ctx.g, ctx.tm.classes, ctx.pUnits, ctx.small)
}

// constructSchedule realizes an N-fold solution as a splittable result.
func (ctx *splitGuessCtx) constructSchedule(x [][]int64) (*SplitResult, error) {
	sched, makespan, err := ctx.explicitSchedule(x)
	if err != nil {
		return nil, err
	}
	return &SplitResult{Schedule: sched, Compact: core.FromSplit(sched), makespan: makespan}, nil
}

// explicitSchedule realizes an N-fold solution as an explicit splittable
// schedule: configurations onto machines, modules into configuration slots,
// original job mass into module slots, small classes by round robin. It
// returns the makespan with it, summed per machine as the slots fill: the
// δ²T/c units of the module slots the machine's large classes opened, less
// what each class left empty in its last slot, plus its small classes.
func (ctx *splitGuessCtx) explicitSchedule(x [][]int64) (*core.SplitSchedule, rat.R, error) {
	ix, ilp, classes := ctx.ix, ctx.tm.ilp, ctx.tm.classes
	in := ix.In
	machines, err := ilp.machineConfigs(x, in.M)
	if err != nil {
		return nil, rat.R{}, err
	}
	pool := ilp.moduleSlots(machines)
	unit := rat.Frac(ctx.t, ctx.g*ctx.g*int64(in.Slots)) // δ²T/c
	yOff := ilp.yOff()
	// Every piece ends a job or a module slot, so the pieces number at
	// most n plus the large classes' slots.
	slots := 0
	for bi, u := range classes {
		if !ctx.small[u] {
			for qi := range ctx.tm.modules {
				slots += int(x[bi][yOff+qi])
			}
		}
	}
	sched := &core.SplitSchedule{Pieces: make([]core.SplitPiece, 0, in.N()+slots)}
	type slotRef struct {
		mi   int
		size int64 // δ²T/c units
	}
	refs := make([]slotRef, 0, slots)
	// units[mi] and whole[mi] are machine mi's opened slot units and small
	// class load; short lists the room left in each large class's last slot.
	units := make([]int64, len(machines))
	whole := make([]int64, len(machines))
	type shortfall struct {
		mi   int
		room rat.R
	}
	var short []shortfall
	for bi, u := range classes {
		if ctx.small[u] {
			continue
		}
		// Class u's module slots, filled in machine order.
		refs = refs[:0]
		for qi, size := range ctx.tm.modules {
			for k := x[bi][yOff+qi]; k > 0; k-- {
				mi, err := pool.take(qi)
				if err != nil {
					return nil, rat.R{}, err
				}
				refs = append(refs, slotRef{mi, size})
			}
		}
		slices.SortStableFunc(refs, func(a, b slotRef) int { return cmp.Compare(a.mi, b.mi) })
		ri := 0
		var room rat.R // remaining capacity of the current slot
		for _, j := range ix.Jobs[u] {
			remaining := rat.FromInt(in.P[j])
			for remaining.Sign() > 0 {
				for room.Sign() == 0 {
					if ri >= len(refs) {
						return nil, rat.R{}, fmt.Errorf("ptas: class %d ran out of module capacity", u)
					}
					room = unit.MulInt(refs[ri].size)
					units[refs[ri].mi] += refs[ri].size
					ri++
				}
				take := remaining
				if take.Cmp(room) > 0 {
					take = room
				}
				sched.Pieces = append(sched.Pieces, core.SplitPiece{
					Job: j, Machine: int64(refs[ri-1].mi), Size: take,
				})
				remaining = remaining.Sub(take)
				room = room.Sub(take)
			}
		}
		if room.Sign() > 0 {
			short = append(short, shortfall{refs[ri-1].mi, room})
		}
	}
	err = ilp.dealSmall(x, classes, ctx.small, ix.Loads, machines, func(u, mi int) {
		for _, j := range ix.Jobs[u] {
			sched.Pieces = append(sched.Pieces, core.SplitPiece{
				Job: j, Machine: int64(mi), Size: rat.FromInt(in.P[j]),
			})
			whole[mi] += in.P[j]
		}
	})
	if err != nil {
		return nil, rat.R{}, err
	}
	slices.SortFunc(short, func(a, b shortfall) int { return cmp.Compare(a.mi, b.mi) })
	var makespan rat.R
	for mi, si := 0, 0; mi < len(machines); mi++ {
		if units[mi] == 0 && whole[mi] == 0 {
			continue
		}
		load := unit.MulInt(units[mi]).Add(rat.FromInt(whole[mi]))
		for ; si < len(short) && short[si].mi == mi; si++ {
			load = load.Sub(short[si].room)
		}
		if load.Cmp(makespan) > 0 {
			makespan = load
		}
	}
	return sched, makespan, nil
}

// BuildSplittableNFold exposes the configuration N-fold of the splittable
// scheme at the instance's certified lower bound, for the tests and the E8
// benchmark that study the N-fold machinery in isolation.
func BuildSplittableNFold(in *core.Instance, epsilon float64) (*nfold.Problem, error) {
	g, err := Options{Epsilon: epsilon}.delta()
	if err != nil {
		return nil, err
	}
	ix, bound, err := certifiedBound(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	lo := max(1, bound.Ceil())
	tm, err := newSplitTemplate(context.Background(), ix, g, Options{}.maxConfigs())
	if err != nil {
		return nil, err
	}
	ctx, err := tm.instantiate(context.Background(), lo)
	if err != nil {
		return nil, err
	}
	return ctx.buildNFold(context.Background())
}
