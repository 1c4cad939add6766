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
// enumeration fields alias the search's shared splitTemplate; only the
// classification and rounded loads are per-guess.
type splitGuessCtx struct {
	in    *core.Instance
	g     int64 // 1/δ
	t     int64 // the guess T
	m     int64 // machines the N-fold covers (fewer on the huge-m path)
	cStar int64
	// loads per class and large/small classification (ξ_u = 1 iff small).
	loads   []int64
	small   []bool
	pUnits  []int64 // rounded class load in units of δ²T/c
	modules []int64 // module sizes in ℓ-units (multiples of δT/c... ℓ itself)
	configs []configK
	hbPairs []hbPair
	hbIndex map[hbKey]int
	tm      *splitTemplate
}

// configK is a configuration: a multiset of module sizes (ℓ-units).
type configK struct {
	counts []int64 // parallel to modules: multiplicity per module size
	size   int64   // Σ ℓ·count (ℓ-units)
	slots  int64   // Σ count
}

type hbKey struct{ h, b int64 }

type hbPair struct {
	h, b    int64
	configs []int // indices into configs with Λ(K)=h, ‖K‖₁=b
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

// buildNFold encodes constraints (0)–(5) for the guess. Blocks come from
// the shared template: every large-class brick aliases one A block, small
// classes alias per-rounded-load patched blocks, and all bricks share one B
// block — so identical bricks are pointer-identical and the augmentation
// engine's move cache enumerates each distinct shape once per search.
func (ctx *splitGuessCtx) buildNFold() *nfold.Problem {
	tm, m := ctx.tm, ctx.m
	nM, nK, nHB := len(ctx.modules), len(ctx.configs), len(ctx.hbPairs)
	// Brick layout: [x_K | y_q | z_hb | s2_hb | s3_hb].
	tWidth := nK + nM + 3*nHB
	xOff, yOff, zOff, s2Off, s3Off := 0, nK, nK+nM, nK+nM+nHB, nK+nM+2*nHB
	r := 1 + nM + 2*nHB
	cUnits := int64(ctx.in.Slots)
	tBar := (ctx.g*ctx.g + 4*ctx.g) * cUnits // T̄ in δ²T/c units

	classes := tm.classes
	n := len(classes)
	p := &nfold.Problem{N: n, R: r, S: 2, T: tWidth}
	for _, u := range classes {
		if ctx.small[u] {
			p.A = append(p.A, tm.smallABlock(ctx.pUnits[u]))
			p.LocalRHS = append(p.LocalRHS, tm.smallLRHS)
		} else {
			p.A = append(p.A, tm.largeA)
			p.LocalRHS = append(p.LocalRHS, []int64{ctx.pUnits[u], 0})
		}
		p.B = append(p.B, tm.sharedB)

		upper := make([]int64, tWidth)
		for ci := range ctx.configs {
			upper[xOff+ci] = m
		}
		for qi := range ctx.modules {
			if !ctx.small[u] {
				// Enough modules to cover the class alone.
				upper[yOff+qi] = ctx.pUnits[u]/(ctx.g*cUnits) + 1
			}
		}
		// Slack bounds must cover (c−b)·Σx and (T̄−h·c)·Σx with x up to m.
		// The huge-m path always passes a polynomially capped m.
		for hi := range ctx.hbPairs {
			if ctx.small[u] {
				upper[zOff+hi] = 1
			}
			upper[s2Off+hi] = cUnits * m
			upper[s3Off+hi] = tBar * m
		}
		p.Lower = append(p.Lower, tm.zeroRow)
		p.Upper = append(p.Upper, upper)
		p.Obj = append(p.Obj, tm.zeroRow)
	}
	p.GlobalRHS = make([]int64, r)
	p.GlobalRHS[0] = m
	return p
}

// SplitResult is the splittable PTAS output.
type SplitResult struct {
	Schedule *core.SplitSchedule
	Compact  *core.CompactSplitSchedule
	Report   Report
}

// Makespan returns the schedule makespan.
func (r *SplitResult) Makespan() *big.Rat { return r.Compact.Makespan() }

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
	var res *SplitResult
	var rep Report
	var err error
	if in.M > opts.hugeMThreshold() {
		res, rep, err = runScheme(ctx, in, opts, hugeScheme)
	} else {
		res, rep, err = runScheme(ctx, in, opts, splitScheme)
	}
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}

// splitScheme is the Theorem 10 scheme. Above the explicit-machine limit the
// 2-approximation is compact-only, and so are its fallback and best-of exits.
var splitScheme = scheme[*splitGuessCtx, *SplitResult]{
	tag: cacheSplit, variant: core.Splittable,
	template: func(in *core.Instance, g int64, opts Options) (guessTemplate[*splitGuessCtx], error) {
		return splitTemplateFor(opts.Session, in, g, opts.maxConfigs())
	},
	approx: func(in *core.Instance) (*SplitResult, error) {
		apx, err := approx.SolveSplittable(in)
		if err != nil {
			return nil, err
		}
		return &SplitResult{Schedule: apx.Explicit, Compact: apx.Compact}, nil
	},
	makespan: splitMakespan,
	descale:  descaleSplit,
}

func splitMakespan(_ *core.Instance, r *SplitResult) *big.Rat { return r.Makespan() }

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
	in := ctx.in
	nM, nK, nHB := len(ctx.modules), len(ctx.configs), len(ctx.hbPairs)
	xOff, yOff, zOff := 0, nK, nK+nM
	classes := []int{}
	for u := range ctx.loads {
		if ctx.loads[u] > 0 {
			classes = append(classes, u)
		}
	}
	// Aggregate configuration counts and per-class module demands.
	xc := make([]int64, nK)
	for bi := range classes {
		for ci := 0; ci < nK; ci++ {
			xc[ci] += x[bi][xOff+ci]
		}
	}
	// Machine list: one entry per machine with its configuration.
	type machine struct {
		config int
		// slotClass[k] is the class filling the k-th module slot.
		slotSizes []int64 // ℓ-units per slot
		slotClass []int
		slotFill  []int64 // filled amount per slot (δ²T/c units)
	}
	var machines []machine
	for ci, cnt := range xc {
		for k := int64(0); k < cnt; k++ {
			m := machine{config: ci}
			for qi, q := range ctx.configs[ci].counts {
				for a := int64(0); a < q; a++ {
					m.slotSizes = append(m.slotSizes, ctx.modules[qi])
					m.slotClass = append(m.slotClass, -1)
					m.slotFill = append(m.slotFill, 0)
				}
			}
			machines = append(machines, m)
		}
	}
	if int64(len(machines)) != in.M {
		return nil, fmt.Errorf("ptas: configuration counts cover %d machines, want %d", len(machines), in.M)
	}
	// Assign module demands to slots, size by size.
	slotsBySize := make(map[int64][][2]int) // ℓ -> list of (machine, slot)
	for mi := range machines {
		for si, s := range machines[mi].slotSizes {
			slotsBySize[s] = append(slotsBySize[s], [2]int{mi, si})
		}
	}
	cursor := make(map[int64]int)
	for bi, u := range classes {
		if ctx.small[u] {
			continue
		}
		for qi, ell := range ctx.modules {
			need := x[bi][yOff+qi]
			for k := int64(0); k < need; k++ {
				lst := slotsBySize[ell]
				if cursor[ell] >= len(lst) {
					return nil, fmt.Errorf("ptas: module demand exceeds slots of size %d", ell)
				}
				ref := lst[cursor[ell]]
				cursor[ell]++
				machines[ref[0]].slotClass[ref[1]] = u
			}
		}
	}
	// Fill original jobs of each large class into its reserved slots.
	sched := &core.SplitSchedule{}
	unit := rat.Frac(ctx.t, ctx.g*ctx.g*int64(in.Slots)) // δ²T/c
	byClass := in.ClassJobs()
	cUnits := int64(in.Slots)
	for _, u := range classes {
		if ctx.small[u] {
			continue
		}
		// Slot instances for class u in machine order.
		type slotRef struct{ mi, si int }
		var refs []slotRef
		for mi := range machines {
			for si := range machines[mi].slotSizes {
				if machines[mi].slotClass[si] == u {
					refs = append(refs, slotRef{mi, si})
				}
			}
		}
		ri := 0
		var room rat.R // remaining capacity of the current slot
		for _, j := range byClass[u] {
			remaining := rat.FromInt(in.P[j])
			for remaining.Sign() > 0 {
				for room.Sign() == 0 {
					if ri >= len(refs) {
						return nil, fmt.Errorf("ptas: class %d ran out of module capacity", u)
					}
					units := machines[refs[ri].mi].slotSizes[refs[ri].si] * cUnits
					room = unit.MulInt(units)
					ri++
				}
				take := remaining
				if take.Cmp(room) > 0 {
					take = room
				}
				ref := refs[ri-1]
				sched.Pieces = append(sched.Pieces, core.SplitPiece{
					Job: j, Machine: int64(ref.mi), Size: take,
				})
				remaining = remaining.Sub(take)
				room = room.Sub(take)
			}
		}
	}
	// Small classes: round robin within each (h,b) machine group.
	groupMachines := make([][]int, nHB)
	for mi := range machines {
		cc := ctx.configs[machines[mi].config]
		hi := ctx.hbIndex[hbKey{cc.size, cc.slots}]
		groupMachines[hi] = append(groupMachines[hi], mi)
	}
	type smallAssign struct {
		u  int
		hb int
	}
	var smalls []smallAssign
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
	// Round robin per group in non-ascending load order (Lemma 3).
	sort.SliceStable(smalls, func(a, b int) bool { return ctx.loads[smalls[a].u] > ctx.loads[smalls[b].u] })
	next := make([]int, nHB)
	for _, sa := range smalls {
		ms := groupMachines[sa.hb]
		if len(ms) == 0 {
			return nil, fmt.Errorf("ptas: small class %d assigned to empty machine group", sa.u)
		}
		mi := ms[next[sa.hb]%len(ms)]
		next[sa.hb]++
		for _, j := range byClass[sa.u] {
			sched.Pieces = append(sched.Pieces, core.SplitPiece{
				Job: j, Machine: int64(mi), Size: rat.FromInt(in.P[j]),
			})
		}
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
	lo, err := lowerBoundInt(in, core.Splittable)
	if err != nil {
		return nil, err
	}
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
