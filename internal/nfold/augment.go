package nfold

import (
	"context"
	"sort"

	"ccsched/internal/faultinject"
)

// The augmentation engine follows the shape of the theoretical N-fold
// algorithms: start from a trivially box-feasible point, then repeatedly
// apply integral moves with bounded brick support, scaled by powers of two
// (the "Graver-best step" schedule). Instead of explicit artificial
// variables, it tracks the residuals of all constraint rows and descends
// their L1 norm — reaching zero residual is exactly phase-1 feasibility.
//
// The move set restricts Graver elements to:
//
//   - singles: ±e_j within one brick,
//   - kernel swaps: support-2 moves a·e_j − b·e_k within one brick with
//     B(a·e_j − b·e_k) = 0 (parallel B-columns), the moves that reshuffle
//     configurations without disturbing local rows,
//   - pairs: two moves in different bricks applied together when neither
//     helps alone.
//
// Every accepted move strictly decreases the nonnegative integral residual
// norm, so the descent terminates. It may stall above zero — the engine is
// a documented heuristic; Solve verifies its output and falls back to the
// exact branch-and-bound engine on a stall (BenchmarkE8NFold times both).

// AugmentOptions tunes the augmentation engine.
type AugmentOptions struct {
	// MaxCoeff bounds kernel-swap coefficients (default 8).
	MaxCoeff int64
	// MaxSwapsPerBrick caps the enumerated kernel swaps (default 4000).
	MaxSwapsPerBrick int
	// MaxSteps caps accepted augmentation steps (default 200000).
	MaxSteps int
}

func (o *AugmentOptions) defaults() AugmentOptions {
	out := AugmentOptions{MaxCoeff: 8, MaxSwapsPerBrick: 4000, MaxSteps: 200000}
	if o == nil {
		return out
	}
	if o.MaxCoeff > 0 {
		out.MaxCoeff = o.MaxCoeff
	}
	if o.MaxSwapsPerBrick > 0 {
		out.MaxSwapsPerBrick = o.MaxSwapsPerBrick
	}
	if o.MaxSteps > 0 {
		out.MaxSteps = o.MaxSteps
	}
	return out
}

// move is a bounded-support change within a single brick.
type move struct {
	cols  []int
	coefs []int64
}

// sparseVec is a sparse integer vector (row index -> value).
type sparseVec struct {
	idx []int32
	val []int64
}

// brickMoves holds a brick's move set with precomputed constraint effects.
type brickMoves struct {
	moves []move
	geff  []sparseVec // A_i·g per move
	leff  []sparseVec // B_i·g per move
}

// augState is the engine's working state.
type augState struct {
	p     *Problem
	x     [][]int64
	gres  []int64   // global residuals: GlobalRHS − Σ A_i x_i
	lres  [][]int64 // local residuals per brick
	bm    []*brickMoves
	steps int
	// ctx is polled at descent-iteration boundaries and inside the long
	// per-brick scans, so cancellation latency is bounded by one brick's
	// move evaluation rather than a whole descent iteration.
	ctx context.Context
	// scanErr is a fault injected at the nfold.scan point; the descent
	// stops at the next iteration boundary and solveAugment surfaces it.
	scanErr error
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func gcd64(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// enumerateMoves builds the per-brick move set with cached sparse effects.
// Bricks sharing block backing arrays share the enumeration and effects;
// with a Template, the sharing extends across every solve of the family
// (the PTAS guess probes reuse block arrays across guesses, so a whole
// search enumerates each distinct brick shape exactly once).
func enumerateMoves(p *Problem, opt AugmentOptions, tmpl *Template) []*brickMoves {
	cache := make(map[brickCacheKey]*brickMoves)
	out := make([]*brickMoves, p.N)
	for i := 0; i < p.N; i++ {
		ck := cacheKey(p, i, opt)
		if bm, ok := cache[ck]; ok {
			out[i] = bm
			continue
		}
		if tmpl != nil {
			if v, ok := tmpl.moves.Load(ck); ok {
				bm := v.(*brickMoves)
				cache[ck] = bm
				out[i] = bm
				continue
			}
		}
		var ms []move
		for j := 0; j < p.T; j++ {
			ms = append(ms,
				move{cols: []int{j}, coefs: []int64{1}},
				move{cols: []int{j}, coefs: []int64{-1}},
			)
		}
		// Slack-completed column moves: configuration ILPs pair structural
		// columns with slack columns via rows like "z + (b−c)x + s = 0";
		// a unit structural step is only ever useful together with the
		// matching multi-unit slack adjustment, which is a genuine Graver
		// element the support-2 swap enumeration cannot reach (the slack
		// coefficient can be large). For every global row served by a
		// dedicated slack column (±1 in exactly that row, absent from B),
		// complete each structural column's effect on that row.
		slackFor := findSlackColumns(p, i)
		rowCol := make([]int, p.R)
		for k := range rowCol {
			rowCol[k] = -1
		}
		for j, r := range slackFor {
			if r >= 0 && rowCol[r] == -1 {
				rowCol[r] = j
			}
		}
		for j := 0; j < p.T; j++ {
			if slackFor[j] != -1 {
				continue // j is itself a slack column
			}
			var cols []int
			var coefs []int64
			ok := false
			for k := 0; k < p.R; k++ {
				a := p.A[i][k][j]
				if a == 0 {
					continue
				}
				if sc := rowCol[k]; sc >= 0 && sc != j {
					cols = append(cols, sc)
					coefs = append(coefs, -a*p.A[i][k][sc])
					ok = true
				}
			}
			if !ok {
				continue
			}
			cols = append([]int{j}, cols...)
			coefs = append([]int64{1}, coefs...)
			neg := make([]int64, len(coefs))
			for x := range coefs {
				neg[x] = -coefs[x]
			}
			ms = append(ms,
				move{cols: cols, coefs: coefs},
				move{cols: cols, coefs: neg},
			)
		}
		// Kernel swaps among parallel B-columns.
		bcol := make([][]int64, p.T)
		for j := 0; j < p.T; j++ {
			col := make([]int64, p.S)
			for r := 0; r < p.S; r++ {
				col[r] = p.B[i][r][j]
			}
			bcol[j] = col
		}
		swaps := 0
	pairLoop:
		for j1 := 0; j1 < p.T && swaps < opt.MaxSwapsPerBrick; j1++ {
			for j2 := j1 + 1; j2 < p.T; j2++ {
				a, b, ok := parallelCoeffs(bcol[j1], bcol[j2], opt.MaxCoeff)
				if !ok {
					continue
				}
				ms = append(ms,
					move{cols: []int{j1, j2}, coefs: []int64{a, -b}},
					move{cols: []int{j1, j2}, coefs: []int64{-a, b}},
				)
				swaps++
				if swaps >= opt.MaxSwapsPerBrick {
					break pairLoop
				}
			}
		}
		bm := &brickMoves{moves: ms}
		bm.geff = make([]sparseVec, len(ms))
		bm.leff = make([]sparseVec, len(ms))
		for mi, g := range ms {
			bm.geff[mi] = sparseEffect(p.A[i], g)
			bm.leff[mi] = sparseEffect(p.B[i], g)
		}
		cache[ck] = bm
		if tmpl != nil {
			// Concurrent probes may race to compute the same block's moves;
			// enumeration is deterministic, so either value is identical and
			// last-write-wins is safe.
			tmpl.moves.Store(ck, bm)
		}
		out[i] = bm
	}
	return out
}

// findSlackColumns identifies slack columns of brick i: columns appearing
// in exactly one global row with coefficient ±1 and nowhere else (neither
// other global rows nor local rows). Returns, per column, the served global
// row or -1.
func findSlackColumns(p *Problem, i int) []int {
	out := make([]int, p.T)
	for j := 0; j < p.T; j++ {
		out[j] = -1
		row := -1
		ok := true
		for k := 0; k < p.R && ok; k++ {
			switch v := p.A[i][k][j]; {
			case v == 0:
			case (v == 1 || v == -1) && row == -1:
				row = k
			default:
				ok = false
			}
		}
		for k := 0; k < p.S && ok; k++ {
			if p.B[i][k][j] != 0 {
				ok = false
			}
		}
		if ok && row >= 0 {
			out[j] = row
		}
	}
	return out
}

func sparseEffect(block [][]int64, g move) sparseVec {
	var sv sparseVec
	for k := range block {
		var dot int64
		row := block[k]
		for idx, j := range g.cols {
			dot += row[j] * g.coefs[idx]
		}
		if dot != 0 {
			sv.idx = append(sv.idx, int32(k))
			sv.val = append(sv.val, dot)
		}
	}
	return sv
}

// brickCacheKey identifies a brick's move set by the identity of its block
// slices (not their first elements: builders may alias individual rows
// between otherwise-different blocks) plus the enumeration knobs, so a key
// stays valid inside a cross-solve Template cache.
type brickCacheKey struct {
	a, b     *[]int64
	t        int
	maxCoeff int64
	maxSwaps int
}

func cacheKey(p *Problem, i int, opt AugmentOptions) brickCacheKey {
	k := brickCacheKey{t: p.T, maxCoeff: opt.MaxCoeff, maxSwaps: opt.MaxSwapsPerBrick}
	if p.R > 0 {
		k.a = &p.A[i][0]
	}
	if p.S > 0 {
		k.b = &p.B[i][0]
	}
	return k
}

// parallelCoeffs finds minimal positive (a,b) with a·u = b·v, if u and v are
// parallel and the coefficients stay within maxCoeff. Zero columns pair with
// coefficients (1,1).
func parallelCoeffs(u, v []int64, maxCoeff int64) (int64, int64, bool) {
	uz, vz := true, true
	for i := range u {
		if u[i] != 0 {
			uz = false
		}
		if v[i] != 0 {
			vz = false
		}
	}
	if uz && vz {
		return 1, 1, true
	}
	if uz || vz {
		return 0, 0, false
	}
	var a, b int64
	for i := range u {
		if u[i] != 0 || v[i] != 0 {
			if u[i] == 0 || v[i] == 0 {
				return 0, 0, false
			}
			g := gcd64(u[i], v[i])
			a, b = v[i]/g, u[i]/g
			break
		}
	}
	if a < 0 {
		a, b = -a, -b
	}
	if a == 0 || b == 0 || a > maxCoeff || abs64(b) > maxCoeff {
		return 0, 0, false
	}
	for i := range u {
		if a*u[i] != b*v[i] {
			return 0, 0, false
		}
	}
	return a, b, true
}

// newAugState clamps zero into the box and computes residuals.
func newAugState(p *Problem, opt AugmentOptions, tmpl *Template) *augState {
	st := &augState{p: p}
	st.x = make([][]int64, p.N)
	for i := 0; i < p.N; i++ {
		st.x[i] = make([]int64, p.T)
		for j := 0; j < p.T; j++ {
			v := int64(0)
			if v < p.Lower[i][j] {
				v = p.Lower[i][j]
			}
			if v > p.Upper[i][j] {
				v = p.Upper[i][j]
			}
			st.x[i][j] = v
		}
	}
	st.gres = make([]int64, p.R)
	copy(st.gres, p.GlobalRHS)
	st.lres = make([][]int64, p.N)
	for i := 0; i < p.N; i++ {
		st.lres[i] = make([]int64, p.S)
		copy(st.lres[i], p.LocalRHS[i])
		for k := 0; k < p.R; k++ {
			row := p.A[i][k]
			for j := 0; j < p.T; j++ {
				if row[j] != 0 && st.x[i][j] != 0 {
					st.gres[k] -= row[j] * st.x[i][j]
				}
			}
		}
		for k := 0; k < p.S; k++ {
			row := p.B[i][k]
			for j := 0; j < p.T; j++ {
				if row[j] != 0 && st.x[i][j] != 0 {
					st.lres[i][k] -= row[j] * st.x[i][j]
				}
			}
		}
	}
	st.bm = enumerateMoves(p, opt, tmpl)
	return st
}

// residualNorm is the phase-1 objective Σ|residual|.
func (st *augState) residualNorm() int64 {
	var total int64
	for _, v := range st.gres {
		total += abs64(v)
	}
	for i := range st.lres {
		for _, v := range st.lres[i] {
			total += abs64(v)
		}
	}
	return total
}

// maxStep returns the largest λ ≥ 0 such that x_i + λ·g stays in the box.
func (st *augState) maxStep(i, mi int) int64 {
	g := &st.bm[i].moves[mi]
	lim := int64(1) << 40
	for idx, j := range g.cols {
		c := g.coefs[idx]
		if c > 0 {
			if l := (st.p.Upper[i][j] - st.x[i][j]) / c; l < lim {
				lim = l
			}
		} else if c < 0 {
			if l := (st.x[i][j] - st.p.Lower[i][j]) / (-c); l < lim {
				lim = l
			}
		}
	}
	return lim
}

// improvement computes the residual-norm reduction of applying λ·g in brick
// i (positive is better).
func (st *augState) improvement(i, mi int, lambda int64) int64 {
	bm := st.bm[i]
	var delta int64
	ge := bm.geff[mi]
	for k, ri := range ge.idx {
		old := st.gres[ri]
		delta += abs64(old) - abs64(old-lambda*ge.val[k])
	}
	le := bm.leff[mi]
	for k, ri := range le.idx {
		old := st.lres[i][ri]
		delta += abs64(old) - abs64(old-lambda*le.val[k])
	}
	return delta
}

// apply commits λ·g in brick i.
func (st *augState) apply(i, mi int, lambda int64) {
	bm := st.bm[i]
	g := &bm.moves[mi]
	for idx, j := range g.cols {
		st.x[i][j] += lambda * g.coefs[idx]
	}
	ge := bm.geff[mi]
	for k, ri := range ge.idx {
		st.gres[ri] -= lambda * ge.val[k]
	}
	le := bm.leff[mi]
	for k, ri := range le.idx {
		st.lres[i][ri] -= lambda * le.val[k]
	}
	st.steps++
}

// scanRes is one brick range's best move under the canonical incumbent
// rule: lexicographically largest (gain, lambda), earliest (brick, move) on
// full ties. brick < 0 means no improving move in the range.
type scanRes struct {
	brick, move  int
	lambda, gain int64
}

// better reports whether cand displaces inc under the incumbent rule the
// scan applies at every (brick, move, λ) it visits.
func (inc *scanRes) better(gain, lambda int64) bool {
	return gain > inc.gain || (gain == inc.gain && gain > 0 && lambda > inc.lambda)
}

// scanRange computes the incumbent over bricks [from, to). The scan reads
// only pre-move state (x, residuals, bounds, move tables).
func (st *augState) scanRange(ctx context.Context, from, to int) scanRes {
	best := scanRes{brick: -1, move: -1}
	for i := from; i < to; i++ {
		if ctx.Err() != nil {
			return best
		}
		bm := st.bm[i]
		for mi := range bm.moves {
			lim := st.maxStep(i, mi)
			if lim == 0 {
				continue
			}
			// Graver-best-step schedule: powers of two up to the box
			// limit, plus the limit itself.
			for lambda := int64(1); ; lambda *= 2 {
				if lambda > lim {
					lambda = lim
				}
				if gain := st.improvement(i, mi, lambda); best.better(gain, lambda) {
					best = scanRes{brick: i, move: mi, lambda: lambda, gain: gain}
				}
				if lambda == lim {
					break
				}
			}
		}
	}
	return best
}

// scanBest finds the descent's next move over all bricks. Moves are applied
// by the caller.
func (st *augState) scanBest(ctx context.Context) scanRes {
	if err := faultinject.Check("nfold.scan"); err != nil {
		st.scanErr = err
		return scanRes{brick: -1, move: -1}
	}
	return st.scanRange(ctx, 0, st.p.N)
}

// descend runs the greedy residual descent until the residual reaches zero,
// no move improves it, or ctx is canceled (the caller translates a canceled
// context into an error, so a partial descent is never mistaken for a
// stall). Returns the final residual norm.
func (st *augState) descend(ctx context.Context, opt AugmentOptions) int64 {
	for st.steps < opt.MaxSteps {
		if ctx.Err() != nil {
			return st.residualNorm()
		}
		if st.residualNorm() == 0 {
			return 0
		}
		best := st.scanBest(ctx)
		if st.scanErr != nil || ctx.Err() != nil {
			return st.residualNorm()
		}
		if best.gain <= 0 {
			if !st.pairStep() {
				return st.residualNorm()
			}
			continue
		}
		st.apply(best.brick, best.move, best.lambda)
	}
	return st.residualNorm()
}

// pairStep looks for two moves (of any supported shape, step 1) whose
// combined effect reduces the residual even though neither helps alone —
// the typical stall is a unit move in one brick repaired by a kernel swap
// in another. Returns true if it applied a pair.
func (st *augState) pairStep() bool {
	type cand struct {
		brick, mi int
		gain      int64
	}
	var cands []cand
	for i := 0; i < st.p.N; i++ {
		for mi := range st.bm[i].moves {
			if st.maxStep(i, mi) == 0 {
				continue
			}
			cands = append(cands, cand{i, mi, st.improvement(i, mi, 1)})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
	const window = 512
	lim := len(cands)
	if lim > window {
		lim = window
	}
	for ai := 0; ai < lim; ai++ {
		if st.ctx != nil && st.ctx.Err() != nil {
			return false
		}
		a := cands[ai]
		gainA := st.improvement(a.brick, a.mi, 1)
		// Tentatively apply a, then search for a repairing partner.
		st.apply(a.brick, a.mi, 1)
		for bi := 0; bi < lim; bi++ {
			if bi == ai {
				continue
			}
			b := cands[bi]
			if st.maxStep(b.brick, b.mi) == 0 {
				continue
			}
			if gainA+st.improvement(b.brick, b.mi, 1) > 0 {
				st.apply(b.brick, b.mi, 1)
				return true
			}
		}
		// Roll back a: the inverse move is its partner in the enumeration
		// (moves come in ± pairs: indices 2k and 2k+1 for singles/swaps).
		st.apply(a.brick, a.mi^1, 1)
		st.steps -= 2 // the tentative apply/rollback should not consume budget
	}
	return false
}

// solveAugment runs the augmentation engine for feasibility (and greedy
// objective descent when Obj is nonzero). Cancellation is polled once per
// descent step; a canceled context surfaces as ctx.Err().
func (p *Problem) solveAugment(ctx context.Context, opts *AugmentOptions, tmpl *Template) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := opts.defaults()
	st := newAugState(p, opt, tmpl)
	st.ctx = ctx
	if rest := st.descend(ctx, opt); rest != 0 || st.scanErr != nil {
		if err := st.scanErr; err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Result{Status: Unknown, Engine: EngineAugment, Nodes: st.steps}, nil
	}
	if err := p.Check(st.x); err != nil {
		return nil, err
	}
	if hasObjective(p) {
		st.objectiveDescend(ctx, opt)
		// A deadline that fires mid objective descent must surface as an
		// error (the SolveCtx contract), not as a silently under-optimized
		// Feasible result whose objective depends on timing.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.Check(st.x); err != nil {
			return nil, err
		}
	}
	return &Result{
		Status: Feasible,
		X:      st.x,
		Obj:    p.Objective(st.x),
		Engine: EngineAugment,
		Nodes:  st.steps,
	}, nil
}

func hasObjective(p *Problem) bool {
	for i := range p.Obj {
		for _, v := range p.Obj[i] {
			if v != 0 {
				return true
			}
		}
	}
	return false
}

// objectiveDescend greedily improves the objective with moves that keep all
// residuals at zero. A canceled context stops the descent early; the
// incumbent stays feasible, so the caller can still return it.
func (st *augState) objectiveDescend(ctx context.Context, opt AugmentOptions) {
	p := st.p
	for st.steps < opt.MaxSteps {
		if ctx.Err() != nil {
			return
		}
		improved := false
		for i := 0; i < p.N && !improved; i++ {
			bm := st.bm[i]
			for mi := range bm.moves {
				if len(bm.geff[mi].idx) != 0 || len(bm.leff[mi].idx) != 0 {
					continue
				}
				var objDelta int64
				g := &bm.moves[mi]
				for idx, j := range g.cols {
					objDelta += p.Obj[i][j] * g.coefs[idx]
				}
				if objDelta >= 0 {
					continue
				}
				lim := st.maxStep(i, mi)
				if lim == 0 {
					continue
				}
				st.apply(i, mi, lim)
				improved = true
				break
			}
		}
		if !improved {
			return
		}
	}
}
