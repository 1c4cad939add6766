package ptas

import (
	"ccsched/internal/core"
	"ccsched/internal/nfold"
)

// Guess templates. A makespan-guess search probes a handful of grid points
// over the same instance, and between grid points only the guess-dependent
// pieces of the configuration N-fold change: the large/small classification,
// the rounded class loads p'_u (which appear in local right-hand sides,
// bounds, and — for small classes — one coefficient row), and nothing else.
// Historically every probe re-enumerated modules, configurations and (h,b)
// groups and re-allocated every brick's A and B blocks from scratch, which
// both burned time directly and defeated the augmentation engine's
// pointer-keyed move-set cache: N identical large-class bricks got N
// distinct block allocations and N move enumerations (~half of a probe's
// runtime at n=1000).
//
// A template is built once per search and carries everything guess-
// independent: the enumerations, plus shared immutable block arrays that
// instantiate() hands to every brick. Bricks with identical blocks now
// share one allocation — across bricks, and (for the splittable and
// preemptive schemes, whose block values do not depend on the guess) across
// guesses — so the move cache in the embedded nfold.Template enumerates
// each distinct brick shape exactly once per search. All template state is
// immutable after construction except the block caches, which fill on
// first use; a template serves one search, so the caches need no lock.

// splitTemplate is the guess-independent part of the splittable scheme's
// construction (Section 4.1): the module/configuration enumeration and the
// shared N-fold blocks.
type splitTemplate struct {
	in      *core.Instance
	g       int64
	loads   []int64
	classes []int
	cStar   int64
	modules []int64
	configs []configK
	hbPairs []hbPair
	hbIndex map[hbKey]int
	// Shared immutable N-fold pieces. largeA is the A block of every
	// large-class brick; small-class bricks differ from it only in the
	// (3)-row z coefficients, which hold the rounded class load, so they are
	// cached per distinct value in smallA. sharedB, zeroRow and smallLRHS
	// are identical for every brick.
	largeA    [][]int64
	sharedB   [][]int64
	zeroRow   []int64
	smallLRHS []int64
	smallA    map[int64][][]int64 // by pUnits
	nf        *nfold.Template
}

// newSplitTemplate enumerates the guess-independent structures once.
func newSplitTemplate(in *core.Instance, g int64, limit int) (*splitTemplate, error) {
	tm := &splitTemplate{in: in, g: g, smallA: make(map[int64][][]int64), nf: nfold.NewTemplate()}
	tm.loads = in.ClassLoads()
	for u, pu := range tm.loads {
		if pu > 0 {
			tm.classes = append(tm.classes, u)
		}
	}
	c := int64(in.Slots)
	tm.cStar = g + 4
	if c < tm.cStar {
		tm.cStar = c
	}
	for ell := g; ell <= g*g+4*g; ell++ {
		tm.modules = append(tm.modules, ell)
	}
	var err error
	tm.configs, err = enumerateConfigs(tm.modules, g*g+4*g, tm.cStar, limit)
	if err != nil {
		return nil, err
	}
	tm.hbIndex = make(map[hbKey]int)
	for ci, cc := range tm.configs {
		k := hbKey{cc.size, cc.slots}
		idx, ok := tm.hbIndex[k]
		if !ok {
			idx = len(tm.hbPairs)
			tm.hbIndex[k] = idx
			tm.hbPairs = append(tm.hbPairs, hbPair{h: cc.size, b: cc.slots})
		}
		tm.hbPairs[idx].configs = append(tm.hbPairs[idx].configs, ci)
	}
	tm.buildSharedBlocks()
	return tm, nil
}

// buildSharedBlocks assembles the guess-independent block arrays: rows (0),
// (1), (2) and the large-class form of (3) for A, and rows (4), (5) for B.
// Every value is independent of the guess T because the scheme works in
// δ²T/c units.
func (tm *splitTemplate) buildSharedBlocks() {
	nM, nK, nHB := len(tm.modules), len(tm.configs), len(tm.hbPairs)
	tWidth := nK + nM + 3*nHB
	xOff, yOff, zOff, s2Off, s3Off := 0, nK, nK+nM, nK+nM+nHB, nK+nM+2*nHB
	r := 1 + nM + 2*nHB
	cUnits := int64(tm.in.Slots)
	tBar := (tm.g*tm.g + 4*tm.g) * cUnits

	a := make([][]int64, r)
	for k := range a {
		a[k] = make([]int64, tWidth)
	}
	// (0) Σ x_K = m
	for ci := range tm.configs {
		a[0][xOff+ci] = 1
	}
	// (1) per module size: Σ K_q x_K − y_q = 0
	for qi := range tm.modules {
		row := a[1+qi]
		for ci, cc := range tm.configs {
			if cc.counts[qi] != 0 {
				row[xOff+ci] = cc.counts[qi]
			}
		}
		row[yOff+qi] = -1
	}
	// (2),(3) per (h,b) pair; the (3)-row z coefficient is 1 for large
	// classes (z is forced to 0 there) and is patched per small class.
	for hi, hb := range tm.hbPairs {
		row2 := a[1+nM+hi]
		row3 := a[1+nM+nHB+hi]
		row2[zOff+hi] = 1
		row2[s2Off+hi] = 1
		row3[s3Off+hi] = 1
		row3[zOff+hi] = 1
		for _, ci := range hb.configs {
			row2[xOff+ci] = hb.b - cUnits
			row3[xOff+ci] = hb.h*cUnits - tBar
		}
	}
	tm.largeA = a

	b := make([][]int64, 2)
	b[0] = make([]int64, tWidth)
	b[1] = make([]int64, tWidth)
	// (4) Σ q·y_q = (1-ξ_u)·p'_u   (q in δ²T/c units = ℓ·c)
	for qi, ell := range tm.modules {
		b[0][yOff+qi] = ell * cUnits
	}
	// (5) Σ z = ξ_u
	for hi := range tm.hbPairs {
		b[1][zOff+hi] = 1
	}
	tm.sharedB = b

	tm.zeroRow = make([]int64, tWidth)
	tm.smallLRHS = []int64{0, 1}
}

// smallABlock returns the A block of a small class with rounded load pu:
// largeA with the (3)-row z coefficients replaced by pu. Unpatched rows are
// aliased, patched rows copied; blocks are cached per distinct pu (values
// recur across classes and guesses), so the move-set cache sees one block
// per distinct load.
func (tm *splitTemplate) smallABlock(pu int64) [][]int64 {
	if a, ok := tm.smallA[pu]; ok {
		return a
	}
	nM, nK, nHB := len(tm.modules), len(tm.configs), len(tm.hbPairs)
	zOff := nK + nM
	a := make([][]int64, len(tm.largeA))
	copy(a, tm.largeA)
	for hi := 0; hi < nHB; hi++ {
		ri := 1 + nM + nHB + hi
		row := append([]int64(nil), tm.largeA[ri]...)
		row[zOff+hi] = pu
		a[ri] = row
	}
	tm.smallA[pu] = a
	return a
}

// npTemplate is the guess-independent part of the non-preemptive scheme.
// Job grouping, size rounding and therefore the module/configuration
// enumerations — and the block *values* — all depend on the guess, so the
// template only caches the class partition and the cross-probe
// nfold.Template; the per-guess buildNFold still shares its blocks across
// bricks (see nonpreemptive.go), which keeps move enumeration at one pass
// per distinct brick shape per probe. (The nfold move cache accumulates at
// most one dead entry set per probe of one search — bounded by the tiny
// guess grid — before the template is dropped.)
type npTemplate struct {
	in      *core.Instance
	g       int64
	limit   int
	byClass [][]int
	nf      *nfold.Template
}

func (tm *splitTemplate) engines() *nfold.Template { return tm.nf }
func (tm *npTemplate) engines() *nfold.Template    { return tm.nf }
func (tm *preTemplate) engines() *nfold.Template   { return tm.nf }

func newNPTemplate(in *core.Instance, g int64, limit int) *npTemplate {
	return &npTemplate{in: in, g: g, limit: limit, byClass: in.ClassJobs(), nf: nfold.NewTemplate()}
}

// preTemplate is the guess-independent part of the preemptive scheme: the
// layer geometry and the interval-module/configuration enumeration (the
// most expensive part of a preemptive probe's construction) depend only on
// δ and the slot budget, never on the guess. The N-fold block *values* are
// also guess-independent; only the brick width varies with the number of
// distinct rounded job sizes nP, so the shared blocks are cached per nP —
// probes whose size count coincides (the common case between neighboring
// guesses) alias the same arrays across guesses and hit the move cache.
type preTemplate struct {
	in        *core.Instance
	g         int64
	layers    int
	cStar     int64
	tBarUnits int64
	byClass   [][]int
	modules   []interval
	configs   []preConfig
	hbPairs   []hbPair
	hbIndex   map[hbKey]int
	blocks    map[int]*preBlocks     // by nP
	smallA    map[[2]int64][][]int64 // by {nP, smallUnits}
	nf        *nfold.Template
}

// preBlocks bundles the shared per-width block arrays of the preemptive
// N-fold. All fields are immutable after construction.
type preBlocks struct {
	largeA    [][]int64
	sharedB   [][]int64
	zeroRow   []int64
	smallLRHS []int64
}

// blocksFor returns (building and caching on first use) the shared blocks
// for a brick width with nP distinct large-job sizes. Rows (0)–(3) of A and
// (4)–(6) of B reference sizes only by index, never by value, so the block
// contents are a pure function of (template, nP).
func (tm *preTemplate) blocksFor(nP int) *preBlocks {
	if b, ok := tm.blocks[nP]; ok {
		return b
	}
	nM, nK, nHB, nL := len(tm.modules), len(tm.configs), len(tm.hbPairs), tm.layers
	tWidth := nK + nM + 3*nHB + nP*nL
	xOff, yOff, zOff, s2Off, s3Off, aOff := 0, nK, nK+nM, nK+nM+nHB, nK+nM+2*nHB, nK+nM+3*nHB
	r := 1 + nM + 2*nHB
	s := nP + nL + 1
	cUnits := int64(tm.in.Slots)

	b := &preBlocks{}
	b.largeA = make([][]int64, r)
	for k := range b.largeA {
		b.largeA[k] = make([]int64, tWidth)
	}
	for ci := range tm.configs {
		b.largeA[0][xOff+ci] = 1
	}
	// (1) per module M: Σ_K K_M x_K − y_M = 0.
	for mi := range tm.modules {
		b.largeA[1+mi][yOff+mi] = -1
	}
	for ci, cc := range tm.configs {
		for _, mi := range cc.intervals {
			b.largeA[1+mi][xOff+ci] = 1
		}
	}
	// (2),(3) per (h,b) pair; the (3)-row z coefficient is 1 for large
	// classes and is patched per small class (smallABlock).
	for hi, hb := range tm.hbPairs {
		row2 := b.largeA[1+nM+hi]
		row3 := b.largeA[1+nM+nHB+hi]
		row2[zOff+hi] = 1
		row2[s2Off+hi] = 1
		row3[s3Off+hi] = 1
		row3[zOff+hi] = 1
		for _, ci := range hb.configs {
			row2[xOff+ci] = hb.b - cUnits
			row3[xOff+ci] = hb.h - tm.tBarUnits
		}
	}

	b.sharedB = make([][]int64, s)
	for k := range b.sharedB {
		b.sharedB[k] = make([]int64, tWidth)
	}
	// (4) per size p: Σ_ℓ a_{p,ℓ} = (1-ξ)·w_p·n^u_p.
	for pi := 0; pi < nP; pi++ {
		for l := 0; l < nL; l++ {
			b.sharedB[pi][aOff+pi*nL+l] = 1
		}
	}
	// (5) per layer ℓ: Σ_M M_ℓ y_M − Σ_p a_{p,ℓ} = 0.
	for l := 0; l < nL; l++ {
		row := b.sharedB[nP+l]
		for mi, iv := range tm.modules {
			if iv.lo <= l && l < iv.hi {
				row[yOff+mi] = 1
			}
		}
		for pi := 0; pi < nP; pi++ {
			row[aOff+pi*nL+l] = -1
		}
	}
	// (6) Σ z = ξ.
	for hi := range tm.hbPairs {
		b.sharedB[nP+nL][zOff+hi] = 1
	}
	b.zeroRow = make([]int64, tWidth)
	b.smallLRHS = make([]int64, s)
	b.smallLRHS[nP+nL] = 1
	tm.blocks[nP] = b
	return b
}

// smallABlock returns the A block of a small class with rounded load units:
// the width-nP large block with the (3)-row z coefficients replaced.
// Unpatched rows are aliased, patched rows copied; cached per (nP, units)
// so recurring loads share blocks across classes and guesses.
func (tm *preTemplate) smallABlock(nP int, units int64) [][]int64 {
	ck := [2]int64{int64(nP), units}
	if a, ok := tm.smallA[ck]; ok {
		return a
	}
	bl := tm.blocksFor(nP)
	nM, nK, nHB := len(tm.modules), len(tm.configs), len(tm.hbPairs)
	zOff := nK + nM
	a := make([][]int64, len(bl.largeA))
	copy(a, bl.largeA)
	for hi := 0; hi < nHB; hi++ {
		ri := 1 + nM + nHB + hi
		row := append([]int64(nil), bl.largeA[ri]...)
		row[zOff+hi] = units
		a[ri] = row
	}
	tm.smallA[ck] = a
	return a
}

func newPreTemplate(in *core.Instance, g int64, limit int) (*preTemplate, error) {
	tm := &preTemplate{
		in: in, g: g, byClass: in.ClassJobs(), nf: nfold.NewTemplate(),
		blocks: make(map[int]*preBlocks), smallA: make(map[[2]int64][][]int64),
	}
	c := int64(in.Slots)
	tm.tBarUnits = (g*g + 3*g + 2) * c
	tm.layers = int(g*g + 3*g + 2) // tBarUnits / c
	tm.cStar = int64(tm.layers)
	if c < tm.cStar {
		tm.cStar = c
	}
	for lo := 0; lo < tm.layers; lo++ {
		for hi := lo + 1; hi <= tm.layers; hi++ {
			tm.modules = append(tm.modules, interval{lo, hi})
		}
	}
	var err error
	tm.configs, err = enumerateIntervalConfigs(tm.modules, tm.cStar, limit)
	if err != nil {
		return nil, err
	}
	tm.hbIndex = make(map[hbKey]int)
	for ci, cc := range tm.configs {
		k := hbKey{cc.size, cc.slots}
		idx, ok := tm.hbIndex[k]
		if !ok {
			idx = len(tm.hbPairs)
			tm.hbIndex[k] = idx
			tm.hbPairs = append(tm.hbPairs, hbPair{h: cc.size, b: cc.slots})
		}
		tm.hbPairs[idx].configs = append(tm.hbPairs[idx].configs, ci)
	}
	return tm, nil
}

// instantiate performs the per-guess grouping and rounding, reusing every
// guess-independent structure. The returned context is private to its probe.
func (tm *splitTemplate) instantiate(t int64) (*splitGuessCtx, error) {
	ctx := &splitGuessCtx{
		in: tm.in, g: tm.g, t: t, m: tm.in.M, cStar: tm.cStar,
		loads:   tm.loads,
		modules: tm.modules, configs: tm.configs,
		hbPairs: tm.hbPairs, hbIndex: tm.hbIndex,
		tm: tm,
	}
	c := int64(tm.in.Slots)
	g := tm.g
	ctx.small = make([]bool, len(ctx.loads))
	ctx.pUnits = make([]int64, len(ctx.loads))
	for u, pu := range ctx.loads {
		if pu == 0 {
			continue
		}
		if pu*g > t {
			// Large: round to multiples of δ²T = c units.
			ctx.pUnits[u] = ceilDivBig(pu, g*g, t) * c
		} else {
			ctx.small[u] = true
			// Small: round to multiples of δ²T/c = 1 unit.
			ctx.pUnits[u] = ceilDivBig(pu, g*g*c, t)
		}
	}
	return ctx, nil
}
