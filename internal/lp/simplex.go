package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ccsched/internal/faultinject"
)

const (
	costTol  = 1e-9 // reduced-cost optimality tolerance
	pivotTol = 1e-9 // minimum magnitude of an acceptable pivot element
	feasTol  = 1e-7 // bound/constraint feasibility tolerance
	// refactorEvery bounds error drift: the basis inverse is rebuilt from
	// scratch after this many pivots.
	refactorEvery = 64
	// blandAfter switches to Bland's anti-cycling rule after this many
	// consecutive degenerate pivots.
	blandAfter = 40
)

// spCol is a sparse column of the standard-form constraint matrix.
type spCol struct {
	idx []int32
	val []float64
}

type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	atFree // nonbasic free variable resting at zero
	inBasis
)

// simplexState is the mutable solver state over the standard-form program
// min obj·x  s.t.  Acol x = b,  lo ≤ x ≤ up, where columns comprise the
// structural variables, one slack per row, and one artificial per row.
type simplexState struct {
	m, ncols    int
	cols        []spCol // ncols sparse columns of logical length m
	lo, up      []float64
	b           []float64
	status      []varStatus
	basis       []int       // m basic column indices
	binv        [][]float64 // dense m×m basis inverse
	xb          []float64   // values of basic variables
	y, w        []float64   // pivot scratch (dual vector, entering direction)
	aug         [][]float64 // m×2m refactorization scratch
	rhs         []float64   // refactorization right-hand-side scratch
	iters       int
	maxIters    int
	degenerate  int // consecutive degenerate pivots
	bland       bool
	done        <-chan struct{} // cancellation signal, checked between pivots
	ctx         context.Context // for surfacing ctx.Err() on interruption
	interrupted bool            // the done channel fired mid-optimize
}

// Prepared is a reusable solver for one constraint matrix: the sparse
// standard-form columns and every piece of dense scratch (the m×m basis
// inverse, basic values, refactorization workspace) are allocated once — on
// a pooled arena — so repeated solves that differ only in variable bounds
// (branch-and-bound nodes, makespan-guess re-probes) stop paying O(m²)
// allocations and the O(m·n) validation scan per solve.
//
// A Prepared is NOT safe for concurrent use; each goroutine must Prepare its
// own. Call Release when done to return the arena to the pool.
type Prepared struct {
	p        *Problem // shell; rows, objective and default bounds are read from it
	m, n     int
	ncols    int
	zeroObj  bool
	st       simplexState
	phase1   []float64
	phase2   []float64
	resid    []float64
	xout     []float64
	sc       *scratch
	released bool
	// solveSeq/liveID implement the live-state fast path for warm restores:
	// liveID is nonzero while st still holds the terminal state of the
	// solve that produced it, so a Basis captured from that solve
	// (lastCaptured) can be restored without refactoring.
	solveSeq     uint64
	liveID       uint64
	lastCaptured *Basis
	// rayValid marks that the most recent SolveBounds ended in a cold
	// phase-1 infeasibility and st still holds its terminal state, so
	// InfeasibilityRay can derive the Farkas ray on demand (the derivation
	// is O(m²); deferring it keeps non-root infeasible nodes, which nobody
	// asks a ray of, at zero extra cost).
	rayValid bool
}

// errReleased is returned when a Prepared is used after Release.
var errReleased = errors.New("lp: Prepared used after Release")

// prepareCtxBlock is how many structural columns Prepare copies between
// cancellation polls.
const prepareCtxBlock = 1024

// Prepare validates p once and builds a reusable solver for its rows. The
// problem's bounds act as defaults; SolveBounds may override them per call.
// The context is checked on entry and once per block of copied columns.
func Prepare(ctx context.Context, p *Problem) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, n := len(p.B), p.NumVars
	ncols := n + 2*m
	nnz := 0
	for _, c := range p.Cols {
		for _, v := range c.Vals {
			if v != 0 {
				nnz++
			}
		}
	}
	pr := &Prepared{p: p, m: m, n: n, ncols: ncols, sc: newScratch()}
	pr.zeroObj = true
	for _, c := range p.Obj {
		if c != 0 {
			pr.zeroObj = false
			break
		}
	}
	sc := pr.sc
	sc.ensure(
		nnz+2*m+ // column values
			2*ncols+ // lo, up
			m+ // b
			m*m+ // binv
			2*m*m+ // aug
			2*ncols+ // phase1, phase2
			n+ // xout
			6*m, // xb, y, w, rhs, resid + slack for alignment
		nnz+2*m, // column indices
		ncols,   // statuses
		m,       // basis
		ncols,   // column headers
		2*m,     // binv + aug row headers
	)
	idxSlab := sc.i32s(nnz + 2*m)
	valSlab := sc.f64s(nnz + 2*m)
	cols := sc.colHdrs(ncols)
	pos := 0
	for j := 0; j < n; j++ {
		if j > 0 && j%prepareCtxBlock == 0 {
			if err := ctx.Err(); err != nil {
				releaseScratch(pr.sc)
				return nil, err
			}
		}
		start := pos
		c := p.Cols[j]
		for k, v := range c.Vals {
			if v != 0 {
				idxSlab[pos] = c.Rows[k]
				valSlab[pos] = v
				pos++
			}
		}
		cols[j] = spCol{idx: idxSlab[start:pos:pos], val: valSlab[start:pos:pos]}
	}
	// Slack columns: row i gets slack n+i with A x + s = b.
	for i := 0; i < m; i++ {
		idxSlab[pos] = int32(i)
		valSlab[pos] = 1
		cols[n+i] = spCol{idx: idxSlab[pos : pos+1 : pos+1], val: valSlab[pos : pos+1 : pos+1]}
		pos++
	}
	// Artificial columns: the sign is set per solve from the residuals.
	for i := 0; i < m; i++ {
		idxSlab[pos] = int32(i)
		valSlab[pos] = 1
		cols[n+m+i] = spCol{idx: idxSlab[pos : pos+1 : pos+1], val: valSlab[pos : pos+1 : pos+1]}
		pos++
	}
	st := &pr.st
	st.m, st.ncols = m, ncols
	st.cols = cols
	st.lo, st.up = sc.f64s(ncols), sc.f64s(ncols)
	st.b = sc.f64s(m)
	st.status = sc.statuses(ncols)
	st.basis = sc.intSlice(m)
	binvFlat := sc.f64s(m * m)
	st.binv = sc.rowHdrs(m)
	for i := 0; i < m; i++ {
		st.binv[i] = binvFlat[i*m : (i+1)*m : (i+1)*m]
	}
	augFlat := sc.f64s(2 * m * m)
	st.aug = sc.rowHdrs(m)
	for i := 0; i < m; i++ {
		st.aug[i] = augFlat[i*2*m : (i+1)*2*m : (i+1)*2*m]
	}
	st.xb = sc.f64s(m)
	st.y = sc.f64s(m)
	st.w = sc.f64s(m)
	st.rhs = sc.f64s(m)
	pr.resid = sc.f64s(m)
	pr.phase1 = sc.f64s(ncols)
	pr.phase2 = sc.f64s(ncols)
	pr.xout = sc.f64s(n)
	st.maxIters = 20000 + 200*ncols
	return pr, nil
}

// Release returns the solver's arena to the pool. The Prepared (and any
// Solution.X pointing into its scratch) must not be used afterwards.
func (pr *Prepared) Release() {
	if pr.released {
		return
	}
	pr.released = true
	pr.liveID = 0
	pr.lastCaptured = nil
	releaseScratch(pr.sc)
	pr.sc = nil
}

// SolveBounds solves the prepared program under the given structural bounds
// (nil slices select the problem's own bounds). The result is written into
// sol; sol.X aliases internal scratch and is only valid until the next call
// on this Prepared (callers that keep solutions must copy it).
//
// When warm is non-nil and the objective is identically zero, a bounded
// dual-simplex restore runs first: starting from the captured basis it
// either proves the new bounds infeasible — returning Status Infeasible with
// sol.Warm set, in a handful of pivots — or gives up and falls through to
// the ordinary cold two-phase solve. The restore never influences anything
// but that early Infeasible verdict, so warm-started and cold solves return
// bit-identical solutions whenever a solution exists: this is what keeps
// branch-and-bound trajectories (and therefore every schedule the PTAS
// emits) independent of warm-starting.
func (pr *Prepared) SolveBounds(ctx context.Context, lower, upper []float64, warm *Basis, sol *Solution) error {
	if err := faultinject.Check("lp.solve"); err != nil {
		return err
	}
	if pr.released {
		return errReleased
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	*sol = Solution{}
	pr.rayValid = false
	m, n := pr.m, pr.n
	st := &pr.st
	p := pr.p
	if lower == nil {
		lower = p.Lower
	}
	if upper == nil {
		upper = p.Upper
	}
	// Structural bounds; an empty box is infeasible without any pivoting.
	for j := 0; j < n; j++ {
		if lower[j] > upper[j] {
			sol.Status = Infeasible
			return nil
		}
		st.lo[j], st.up[j] = lower[j], upper[j]
	}
	// Slack bounds are fixed by the row relations.
	for i := 0; i < m; i++ {
		j := n + i
		switch p.Rel[i] {
		case LE:
			st.lo[j], st.up[j] = 0, math.Inf(1)
		case GE:
			st.lo[j], st.up[j] = math.Inf(-1), 0
		case EQ:
			st.lo[j], st.up[j] = 0, 0
		}
	}
	copy(st.b, p.B)
	st.done = ctx.Done()
	st.ctx = ctx
	st.interrupted = false

	if warm != nil && pr.zeroObj && warm.m == m && warm.ncols == pr.ncols {
		proved, pivots := pr.tryWarmInfeasible(warm)
		sol.Iterations += pivots
		if st.interrupted {
			return st.ctx.Err()
		}
		if proved {
			sol.Status = Infeasible
			sol.Warm = true
			return nil
		}
	}
	return pr.solveCold(sol)
}

// solveCold runs the ordinary two-phase simplex from the artificial basis.
// It is arithmetically identical to the pre-warm-start solver: scratch reuse
// only changes where the numbers live, never their values.
func (pr *Prepared) solveCold(sol *Solution) error {
	m, n := pr.m, pr.n
	st := &pr.st
	p := pr.p
	pr.liveID = 0
	st.iters = 0
	st.degenerate = 0
	st.bland = false
	// Artificial bounds reset (a preceding solve pinned them to zero).
	for i := 0; i < m; i++ {
		j := n + m + i
		st.lo[j], st.up[j] = 0, math.Inf(1)
	}
	// Initial nonbasic statuses.
	for j := 0; j < n+m; j++ {
		switch {
		case !math.IsInf(st.lo[j], -1):
			st.status[j] = atLower
		case !math.IsInf(st.up[j], 1):
			st.status[j] = atUpper
		default:
			st.status[j] = atFree
		}
	}
	// Residuals at the initial nonbasic point determine artificial signs.
	resid := pr.resid
	copy(resid, st.b)
	for j := 0; j < n+m; j++ {
		if v := st.nonbasicValue(j); v != 0 {
			col := st.cols[j]
			for k, i := range col.idx {
				resid[i] -= col.val[k] * v
			}
		}
	}
	// Artificial columns form the initial basis: a diagonal ±1 matrix whose
	// signs match the residuals, so the basis inverse is the same diagonal.
	for i := 0; i < m; i++ {
		row := st.binv[i]
		for k := range row {
			row[k] = 0
		}
		j := n + m + i
		if resid[i] >= 0 {
			st.cols[j].val[0] = 1
			st.binv[i][i] = 1
			st.xb[i] = resid[i]
		} else {
			st.cols[j].val[0] = -1
			st.binv[i][i] = -1
			st.xb[i] = -resid[i]
		}
		st.status[j] = inBasis
		st.basis[i] = j
	}

	// Phase 1: minimize the sum of artificials.
	phase1 := pr.phase1
	for j := range phase1 {
		phase1[j] = 0
	}
	for i := 0; i < m; i++ {
		phase1[n+m+i] = 1
	}
	stat := st.optimize(phase1)
	if st.interrupted {
		return st.ctx.Err()
	}
	if stat == IterLimit {
		sol.Status = IterLimit
		sol.X = st.extract(n, pr.xout)
		sol.Iterations += st.iters
		return nil
	}
	if st.objective(phase1) > 1e-6 {
		sol.Status = Infeasible
		sol.Iterations += st.iters
		pr.rayValid = true
		return nil
	}
	// Pin artificials to zero so phase 2 cannot reuse them.
	for i := 0; i < m; i++ {
		st.up[n+m+i] = 0
	}
	// Phase 2: the real objective (zero on slacks and artificials).
	phase2 := pr.phase2
	copy(phase2, p.Obj)
	for j := n; j < len(phase2); j++ {
		phase2[j] = 0
	}
	stat = st.optimize(phase2)
	if st.interrupted {
		return st.ctx.Err()
	}
	x := st.extract(n, pr.xout)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Obj[j] * x[j]
	}
	sol.X = x
	sol.Obj = obj
	sol.Iterations += st.iters
	switch stat {
	case Unbounded:
		sol.Status = Unbounded
	case IterLimit:
		sol.Status = IterLimit
	default:
		sol.Status = Optimal
		pr.solveSeq++
		pr.liveID = pr.solveSeq
	}
	return nil
}

// InfeasibilityRay derives the Farkas ray of the most recent SolveBounds
// call if (and only if) it ended with a cold phase-1 Infeasible verdict:
// y = c_B·B⁻¹ with the phase-1 costs (1 on artificials). At the phase-1
// optimum with positive objective, max over the bound box of y·Ax is
// strictly below y·b, so y certifies that no x satisfies the rows — a
// certificate a caller can cheaply re-verify against a *related* problem
// (see nfold.Problem.CertifiesInfeasible) without trusting this
// derivation. Warm-restore infeasibility verdicts and all non-infeasible
// outcomes return nil. The derivation reads the solver's terminal state,
// so call it before the next solve on this Prepared; the returned slice is
// freshly allocated and safe to retain.
func (pr *Prepared) InfeasibilityRay() []float64 {
	if pr.released || !pr.rayValid {
		return nil
	}
	st := &pr.st
	ray := make([]float64, pr.m)
	for k := 0; k < pr.m; k++ {
		cb := pr.phase1[st.basis[k]]
		if cb == 0 {
			continue
		}
		row := st.binv[k]
		for i := 0; i < pr.m; i++ {
			ray[i] += cb * row[i]
		}
	}
	return ray
}

// Solve runs the two-phase bounded-variable revised simplex.
func Solve(p *Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx is Solve under a context: cancellation is polled before every
// pivot, so a canceled context aborts the solve with ctx.Err() within one
// pivot step. The PTAS guess search relies on this to abandon losing
// speculative makespan probes promptly.
//
// Callers solving the same rows repeatedly under changing bounds should use
// Prepare/SolveBounds instead: this convenience wrapper re-prepares (and
// copies the solution out of the pooled scratch) on every call.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	pr, err := Prepare(ctx, p)
	if err != nil {
		return nil, err
	}
	defer pr.Release()
	sol := &Solution{}
	if err := pr.SolveBounds(ctx, nil, nil, nil, sol); err != nil {
		return nil, err
	}
	if sol.X != nil {
		sol.X = append([]float64(nil), sol.X...)
	}
	return sol, nil
}

func (st *simplexState) nonbasicValue(j int) float64 {
	switch st.status[j] {
	case atLower:
		return st.lo[j]
	case atUpper:
		return st.up[j]
	default:
		return 0
	}
}

func (st *simplexState) objective(obj []float64) float64 {
	total := 0.0
	for i, j := range st.basis {
		total += obj[j] * st.xb[i]
	}
	for j := 0; j < st.ncols; j++ {
		if st.status[j] != inBasis {
			total += obj[j] * st.nonbasicValue(j)
		}
	}
	return total
}

// optimize runs simplex pivots on the given objective until optimality,
// unboundedness or the iteration cap.
func (st *simplexState) optimize(obj []float64) Status {
	m := st.m
	y := st.y
	w := st.w
	for ; st.iters < st.maxIters; st.iters++ {
		// One non-blocking receive per O(m·ncols) pivot: cancellation
		// never waits on more than one pivot.
		if st.done != nil {
			select {
			case <-st.done:
				st.interrupted = true
				return IterLimit
			default:
			}
		}
		// Dual vector y = obj_B^T · B^{-1}.
		for i := 0; i < m; i++ {
			y[i] = 0
		}
		for k, j := range st.basis {
			if c := obj[j]; c != 0 {
				row := st.binv[k]
				for i := 0; i < m; i++ {
					y[i] += c * row[i]
				}
			}
		}
		// Pricing: pick an entering variable.
		enter, dir := -1, 0.0
		best := costTol
		for j := 0; j < st.ncols; j++ {
			stj := st.status[j]
			if stj == inBasis || st.lo[j] == st.up[j] {
				continue
			}
			col := st.cols[j]
			d := obj[j]
			for k, i := range col.idx {
				d -= y[i] * col.val[k]
			}
			var cand float64 // improvement magnitude, candidate direction
			var cdir float64
			switch stj {
			case atLower:
				if d < -costTol {
					cand, cdir = -d, 1
				}
			case atUpper:
				if d > costTol {
					cand, cdir = d, -1
				}
			case atFree:
				if d < -costTol {
					cand, cdir = -d, 1
				} else if d > costTol {
					cand, cdir = d, -1
				}
			}
			if cdir == 0 {
				continue
			}
			if st.bland {
				enter, dir = j, cdir
				break
			}
			if cand > best {
				best, enter, dir = cand, j, cdir
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Direction in basic space: w = B^{-1}·A_enter.
		colE := st.cols[enter]
		for i := 0; i < m; i++ {
			wi := 0.0
			row := st.binv[i]
			for k, ci := range colE.idx {
				wi += row[ci] * colE.val[k]
			}
			w[i] = wi
		}
		// Ratio test: largest step t ≥ 0 keeping everything in bounds.
		const tieTol = 1e-12
		tMax := st.up[enter] - st.lo[enter] // bound-flip limit
		leave := -1
		leaveAt := atLower
		consider := func(k int, t float64, at varStatus) {
			if t < 0 {
				t = 0
			}
			switch {
			case t < tMax-tieTol:
				tMax, leave, leaveAt = t, k, at
			case t < tMax+tieTol && leave >= 0 && st.bland && st.basis[k] < st.basis[leave]:
				// Bland's rule breaks ties toward the smallest variable
				// index, which guarantees termination under degeneracy.
				leave, leaveAt = k, at
			}
		}
		for k := 0; k < m; k++ {
			delta := -dir * w[k] // d(xb_k)/dt
			switch bk := st.basis[k]; {
			case delta > pivotTol:
				if lim := st.up[bk]; !math.IsInf(lim, 1) {
					consider(k, (lim-st.xb[k])/delta, atUpper)
				}
			case delta < -pivotTol:
				if lim := st.lo[bk]; !math.IsInf(lim, -1) {
					consider(k, (lim-st.xb[k])/delta, atLower)
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax <= pivotTol {
			st.degenerate++
			if st.degenerate > blandAfter {
				st.bland = true
			}
		} else {
			st.degenerate = 0
		}
		// Move the basic values.
		for k := 0; k < m; k++ {
			st.xb[k] += -dir * w[k] * tMax
		}
		if leave < 0 {
			// Bound flip: the entering variable traverses its whole range.
			if st.status[enter] == atLower {
				st.status[enter] = atUpper
			} else {
				st.status[enter] = atLower
			}
			continue
		}
		// Pivot: enter replaces basis[leave].
		enterVal := st.nonbasicValue(enter) + dir*tMax
		leaving := st.basis[leave]
		st.status[leaving] = leaveAt
		st.status[enter] = inBasis
		st.basis[leave] = enter
		st.pivotBinv(leave, w)
		st.xb[leave] = enterVal
		if (st.iters+1)%refactorEvery == 0 {
			if err := st.refactor(); err != nil {
				// Singular refactor should not happen; treat as limit.
				return IterLimit
			}
		}
	}
	return IterLimit
}

// pivotBinv applies the eta update for a pivot in basic row r with direction
// vector w = B^{-1}A_enter.
func (st *simplexState) pivotBinv(r int, w []float64) {
	m := st.m
	piv := w[r]
	rowR := st.binv[r]
	inv := 1 / piv
	for i := 0; i < m; i++ {
		rowR[i] *= inv
	}
	for k := 0; k < m; k++ {
		if k == r {
			continue
		}
		f := w[k]
		if f == 0 {
			continue
		}
		row := st.binv[k]
		for i := 0; i < m; i++ {
			row[i] -= f * rowR[i]
		}
	}
}

// refactor rebuilds binv from the basis columns via Gauss-Jordan with
// partial pivoting and recomputes the basic values, washing out drift.
func (st *simplexState) refactor() error {
	m := st.m
	// Assemble [B | I].
	aug := st.aug
	for i := 0; i < m; i++ {
		row := aug[i]
		for k := range row {
			row[k] = 0
		}
		row[m+i] = 1
	}
	for k, j := range st.basis {
		col := st.cols[j]
		for ki, i := range col.idx {
			aug[i][k] = col.val[ki]
		}
	}
	for col := 0; col < m; col++ {
		piv, pv := col, math.Abs(aug[col][col])
		for r := col + 1; r < m; r++ {
			if a := math.Abs(aug[r][col]); a > pv {
				piv, pv = r, a
			}
		}
		if pv < 1e-12 {
			return fmt.Errorf("lp: singular basis during refactor")
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := 1 / aug[col][col]
		for c := col; c < 2*m; c++ {
			aug[col][c] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for c := col; c < 2*m; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(st.binv[i], aug[i][m:])
	}
	st.recomputeXB()
	return nil
}

// recomputeXB refreshes the basic values from the basis inverse:
// xb = B^{-1}(b − Σ_nonbasic A_j v_j).
func (st *simplexState) recomputeXB() {
	m := st.m
	rhs := st.rhs
	copy(rhs, st.b)
	for j := 0; j < st.ncols; j++ {
		if st.status[j] == inBasis {
			continue
		}
		if v := st.nonbasicValue(j); v != 0 {
			col := st.cols[j]
			for k, i := range col.idx {
				rhs[i] -= col.val[k] * v
			}
		}
	}
	for i := 0; i < m; i++ {
		xi := 0.0
		row := st.binv[i]
		for k := 0; k < m; k++ {
			xi += row[k] * rhs[k]
		}
		st.xb[i] = xi
	}
}

// extract writes the structural variable values into out.
func (st *simplexState) extract(n int, out []float64) []float64 {
	x := out[:n]
	for j := 0; j < n; j++ {
		if st.status[j] != inBasis {
			x[j] = st.nonbasicValue(j)
		}
	}
	for k, j := range st.basis {
		if j < n {
			x[j] = st.xb[k]
		}
	}
	return x
}
