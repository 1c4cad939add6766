package ptas

import (
	"context"

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
// independent: the enumerations, plus shared immutable block arrays
// (configBlocks, configilp.go) that every brick aliases. Bricks with
// identical blocks now share one allocation — across bricks, and (for the
// splittable and preemptive schemes, whose block values do not depend on
// the guess) across guesses — so the move cache in the embedded
// nfold.Template enumerates each distinct brick shape exactly once per
// search. All template state is immutable after construction except the
// block caches, which fill on first use; a template serves one search, so
// the caches need no lock.

// splitTemplate is the guess-independent part of the splittable scheme's
// construction (Section 4.1): the module/configuration enumeration and the
// shared N-fold blocks, which hold for every guess. The blocks are built
// by the first probe that builds an N-fold: a search whose probes all hit
// the feasibility cache needs none.
type splitTemplate struct {
	ix      *core.ClassIndex
	g       int64
	classes []int
	// modules are the module sizes ℓ·c for ℓ ∈ {g, …, g²+4g}, in δ²T/c
	// units (δT up to T̄).
	modules []int64
	ilp     *configILP
	blocks  *configBlocks
	nf      *nfold.Template
}

// sharedBlocks returns the template's N-fold blocks, building them on
// first use.
func (tm *splitTemplate) sharedBlocks(ctx context.Context) (*configBlocks, error) {
	if tm.blocks == nil {
		yOff := tm.ilp.yOff()
		bl, err := tm.ilp.blocks(ctx, 0, 1, func(b [][]int64) {
			// (4) Σ q·y_q = (1-ξ_u)·p'_u
			for qi, q := range tm.modules {
				b[0][yOff+qi] = q
			}
		})
		if err != nil {
			return nil, err
		}
		tm.blocks = bl
	}
	return tm.blocks, nil
}

// newSplitTemplate enumerates the guess-independent structures once.
func newSplitTemplate(ctx context.Context, ix *core.ClassIndex, g int64, limit int) (*splitTemplate, error) {
	tm := &splitTemplate{ix: ix, g: g, nf: nfold.NewTemplate()}
	tm.classes = make([]int, 0, ix.NonEmpty)
	for u, pu := range ix.Loads {
		if pu > 0 {
			tm.classes = append(tm.classes, u)
		}
	}
	c := int64(ix.In.Slots)
	tBar := (g*g + 4*g) * c
	for ell := g; ell <= g*g+4*g; ell++ {
		tm.modules = append(tm.modules, ell*c)
	}
	configs, err := enumerateConfigs(ctx, tm.modules, tBar, min(c, g+4), limit)
	if err != nil {
		return nil, err
	}
	tm.ilp = newConfigILP(multisets(configs), len(tm.modules), sameKinds(len(tm.modules)), c, tBar)
	return tm, nil
}

// npTemplate is the guess-independent part of the non-preemptive scheme.
// Job grouping, size rounding and therefore the module/configuration
// enumerations — and the block *values* — all depend on the guess, so the
// template only holds the class index and the cross-probe
// nfold.Template; the per-guess buildNFold still shares its blocks across
// bricks (see nonpreemptive.go), which keeps move enumeration at one pass
// per distinct brick shape per probe. (The nfold move cache accumulates at
// most one dead entry set per probe of one search — bounded by the tiny
// guess grid — before the template is dropped.)
type npTemplate struct {
	ix    *core.ClassIndex
	g     int64
	limit int
	nf    *nfold.Template
}

func (tm *splitTemplate) engines() *nfold.Template { return tm.nf }
func (tm *npTemplate) engines() *nfold.Template    { return tm.nf }
func (tm *preTemplate) engines() *nfold.Template   { return tm.nf }

func newNPTemplate(ix *core.ClassIndex, g int64, limit int) *npTemplate {
	return &npTemplate{ix: ix, g: g, limit: limit, nf: nfold.NewTemplate()}
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
	ix      *core.ClassIndex
	g       int64
	layers  int
	modules []interval
	ilp     *configILP
	blocks  map[int]*configBlocks // by nP
	nf      *nfold.Template
}

func newPreTemplate(ctx context.Context, ix *core.ClassIndex, g int64, limit int) (*preTemplate, error) {
	tm := &preTemplate{ix: ix, g: g, nf: nfold.NewTemplate(), blocks: make(map[int]*configBlocks)}
	c := int64(ix.In.Slots)
	tm.layers = int(g*g + 3*g + 2)
	for lo := 0; lo < tm.layers; lo++ {
		for hi := lo + 1; hi <= tm.layers; hi++ {
			tm.modules = append(tm.modules, interval{lo, hi})
		}
	}
	configs, err := enumerateIntervalConfigs(ctx, tm.modules, min(c, int64(tm.layers)), limit)
	if err != nil {
		return nil, err
	}
	tm.ilp = newConfigILP(intervalSets(configs), len(tm.modules), sameKinds(len(tm.modules)), c, int64(tm.layers)*c)
	return tm, nil
}

// blocksFor returns (building and caching on first use) the shared blocks
// for a brick width with nP distinct large-job sizes, whose extra columns
// are a_{p,ℓ}. Rows (4)–(5) of B reference sizes only by index, never by
// value, so the block contents are a pure function of (template, nP).
func (tm *preTemplate) blocksFor(ctx context.Context, nP int) (*configBlocks, error) {
	if b, ok := tm.blocks[nP]; ok {
		return b, nil
	}
	nL := tm.layers
	yOff, aOff := tm.ilp.yOff(), tm.ilp.extraOff()
	b, err := tm.ilp.blocks(ctx, nP*nL, nP+nL, func(b [][]int64) {
		// (4) per size p: Σ_ℓ a_{p,ℓ} = (1-ξ)·w_p·n^u_p.
		for pi := 0; pi < nP; pi++ {
			for l := 0; l < nL; l++ {
				b[pi][aOff+pi*nL+l] = 1
			}
		}
		// (5) per layer ℓ: Σ_M M_ℓ y_M − Σ_p a_{p,ℓ} = 0.
		for l := 0; l < nL; l++ {
			row := b[nP+l]
			for mi, iv := range tm.modules {
				if iv.lo <= l && l < iv.hi {
					row[yOff+mi] = 1
				}
			}
			for pi := 0; pi < nP; pi++ {
				row[aOff+pi*nL+l] = -1
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tm.blocks[nP] = b
	return b, nil
}

// instantiate performs the per-guess grouping and rounding, reusing every
// guess-independent structure. The returned context is private to its probe.
func (tm *splitTemplate) instantiate(_ context.Context, t int64) (*splitGuessCtx, error) {
	ctx := &splitGuessCtx{ix: tm.ix, g: tm.g, t: t, m: tm.ix.In.M, tm: tm}
	c := int64(tm.ix.In.Slots)
	g := tm.g
	loads := tm.ix.Loads
	ctx.small = make([]bool, len(loads))
	ctx.pUnits = make([]int64, len(loads))
	for u, pu := range loads {
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
