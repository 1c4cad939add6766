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
	in *core.Instance
	g  int64 // 1/δ
	t  int64 // the guess T
	m  int64 // machines the N-fold covers (fewer on the huge-m path)
	// loads per class and large/small classification (ξ_u = 1 iff small).
	loads  []int64
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
// configuration, which idle machines use).
func enumerateConfigs(modules []int64, maxSize, maxSlots int64, limit int) ([]configK, error) {
	var out []configK
	counts := make([]int64, len(modules))
	var rec func(idx int, size, slots int64) error
	rec = func(idx int, size, slots int64) error {
		if len(out) > limit {
			return fmt.Errorf("ptas: configuration count exceeds limit %d; increase epsilon or MaxConfigs", limit)
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

// ceilDivBig returns ⌈a·b/d⌉ using big arithmetic to dodge overflow.
func ceilDivBig(a, b, d int64) int64 {
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
func (ctx *splitGuessCtx) buildNFold() *nfold.Problem {
	gc := ctx.g * int64(ctx.in.Slots)
	return ctx.tm.blocks.build(ctx.m, ctx.tm.classes, ctx.small, ctx.pUnits, func(u int, _ []int64) ([]int64, int64) {
		// Enough modules to cover the class alone.
		return []int64{ctx.pUnits[u], 0}, ctx.pUnits[u]/gc + 1
	})
}

// SplitResult is the splittable PTAS output.
type SplitResult struct {
	Schedule *core.SplitSchedule
	Compact  *core.CompactSplitSchedule
	Report   Report
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
	bound, err := certifiedBound(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	return SolveSplittableLB(ctx, in, opts, bound)
}

// SolveSplittableLB is SolveSplittable given the instance's certified bound
// core.LowerBoundR(in, core.Splittable), for callers that computed it
// already.
func SolveSplittableLB(ctx context.Context, in *core.Instance, opts Options, bound rat.R) (*SplitResult, error) {
	var res *SplitResult
	var makespan rat.R
	var rep Report
	var err error
	if in.M > opts.hugeMThreshold() {
		res, makespan, rep, err = runScheme(ctx, in, opts, hugeScheme, bound)
	} else {
		res, makespan, rep, err = runScheme(ctx, in, opts, splitScheme, bound)
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
	template: func(in *core.Instance, g int64, opts Options) (guessTemplate[*splitGuessCtx], error) {
		return newSplitTemplate(in, g, opts.maxConfigs())
	},
	approx: func(in *core.Instance, bound rat.R) (approxPlan[*SplitResult], error) {
		return planSplit(in, bound, func(r *approx.SplitResult) *SplitResult {
			return &SplitResult{Schedule: r.Explicit, Compact: r.Compact}
		})
	},
	makespan: splitMakespan,
	descale:  descaleSplit,
}

// planSplit plans the 2-approximation for the splittable schemes; wrap
// keeps the parts of its schedule a scheme returns.
func planSplit(in *core.Instance, bound rat.R, wrap func(*approx.SplitResult) *SplitResult) (approxPlan[*SplitResult], error) {
	p, err := approx.PlanSplittable(in, approx.Options{}, bound)
	if err != nil {
		return approxPlan[*SplitResult]{}, err
	}
	return approxPlan[*SplitResult]{
		makespan: p.Makespan(),
		realize:  func() *SplitResult { return wrap(p.Realize()) },
	}, nil
}

func splitMakespan(_ *core.Instance, r *SplitResult) rat.R { return r.Compact.MakespanR() }

// digest keys the feasibility cache (see splitDigest).
func (ctx *splitGuessCtx) digest() [sha256.Size]byte {
	return splitDigest(ctx.m, ctx.in.Slots, ctx.g, ctx.tm.classes, ctx.pUnits, ctx.small)
}

// constructSchedule realizes an N-fold solution as a splittable result.
func (ctx *splitGuessCtx) constructSchedule(x [][]int64) (*SplitResult, error) {
	sched, err := ctx.explicitSchedule(x)
	if err != nil {
		return nil, err
	}
	return &SplitResult{Schedule: sched, Compact: core.FromSplit(sched)}, nil
}

// explicitSchedule realizes an N-fold solution as an explicit splittable
// schedule: configurations onto machines, modules into configuration slots,
// original job mass into module slots, small classes by round robin.
func (ctx *splitGuessCtx) explicitSchedule(x [][]int64) (*core.SplitSchedule, error) {
	in, ilp, classes := ctx.in, ctx.tm.ilp, ctx.tm.classes
	machines, err := ilp.machineConfigs(x, in.M)
	if err != nil {
		return nil, err
	}
	pool := ilp.moduleSlots(machines)
	sched := &core.SplitSchedule{}
	unit := rat.Frac(ctx.t, ctx.g*ctx.g*int64(in.Slots)) // δ²T/c
	byClass := in.ClassJobs()
	yOff := ilp.yOff()
	type slotRef struct {
		mi   int
		size int64 // δ²T/c units
	}
	for bi, u := range classes {
		if ctx.small[u] {
			continue
		}
		// Class u's module slots, filled in machine order.
		var refs []slotRef
		for qi, size := range ctx.tm.modules {
			for k := x[bi][yOff+qi]; k > 0; k-- {
				mi, err := pool.take(qi)
				if err != nil {
					return nil, err
				}
				refs = append(refs, slotRef{mi, size})
			}
		}
		sort.SliceStable(refs, func(a, b int) bool { return refs[a].mi < refs[b].mi })
		ri := 0
		var room rat.R // remaining capacity of the current slot
		for _, j := range byClass[u] {
			remaining := rat.FromInt(in.P[j])
			for remaining.Sign() > 0 {
				for room.Sign() == 0 {
					if ri >= len(refs) {
						return nil, fmt.Errorf("ptas: class %d ran out of module capacity", u)
					}
					room = unit.MulInt(refs[ri].size)
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
	}
	err = ilp.dealSmall(x, classes, ctx.small, ctx.loads, machines, func(u, mi int) {
		for _, j := range byClass[u] {
			sched.Pieces = append(sched.Pieces, core.SplitPiece{
				Job: j, Machine: int64(mi), Size: rat.FromInt(in.P[j]),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return sched, nil
}

// BuildSplittableNFold exposes the configuration N-fold of the splittable
// scheme at the instance's certified lower bound, for the tests and the E8
// benchmark that study the N-fold machinery in isolation.
func BuildSplittableNFold(in *core.Instance, epsilon float64) (*nfold.Problem, error) {
	g, err := Options{Epsilon: epsilon}.delta()
	if err != nil {
		return nil, err
	}
	bound, err := certifiedBound(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	lo := max(1, bound.Ceil())
	tm, err := newSplitTemplate(in, g, Options{}.maxConfigs())
	if err != nil {
		return nil, err
	}
	ctx, err := tm.instantiate(lo)
	if err != nil {
		return nil, err
	}
	return ctx.buildNFold(), nil
}
