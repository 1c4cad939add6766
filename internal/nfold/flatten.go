package nfold

import (
	"context"
	"fmt"
	"math"

	"ccsched/internal/ilp"
	"ccsched/internal/lp"
	"ccsched/internal/trace"
)

// Flatten expands the N-fold into a plain MILP over N*T variables (brick i,
// column j maps to flat index i*T+j) for the exact branch-and-bound engine.
// Rows are the R global rows, then brick i's S local rows in the full order
// R+i*S+k, minus the dead local rows: a local row whose nonzeros all sit on
// columns the brick's bounds fix (Lower == Upper) and whose fixed sum equals
// its right-hand side holds at every point of the box, so it is dropped.
// Branch and bound only tightens bounds, so a row dead at the root stays
// dead at every node. A fixed row whose sum misses its right-hand side is
// kept, so the LP itself proves that problem infeasible. The second return
// value maps each flat row to its row in the full order (see
// expandRay).
//
// The matrix is emitted in sparse column form straight from the brick
// blocks: a dense row would hold N*T floats, and on the large configuration
// ILPs almost all of them are zero (a local row touches one brick's T
// columns). The context is checked every pollColumns columns of a brick in
// each pass, so a canceled solve stops flattening a large N-fold within
// that much work, however wide its bricks.
func (p *Problem) Flatten(ctx context.Context) (*ilp.Problem, []int32, error) {
	if err := p.validate(ctx); err != nil {
		return nil, nil, err
	}
	nv := p.N * p.T
	mp := ilp.NewProblem(nv)
	full := make([]int32, p.R, p.R+p.N*p.S)
	mp.B = make([]float64, p.R, p.R+p.N*p.S)
	for k := 0; k < p.R; k++ {
		full[k] = int32(k)
		mp.B[k] = float64(p.GlobalRHS[k])
	}
	// local[i*S+k] is brick i's local row k in the flat order, or -1 when
	// the row is dead.
	local := make([]int32, p.N*p.S)
	// visitRows visits brick i's kept rows, cut to the columns [lo, hi),
	// in increasing flat row order (the blocks are scanned row by row,
	// which keeps the reads sequential).
	visitRows := func(i, lo, hi int, visit func(row int32, coef []int64)) {
		for k, coef := range p.A[i] {
			visit(int32(k), coef[lo:hi])
		}
		for k, coef := range p.B[i] {
			if row := local[i*p.S+k]; row >= 0 {
				visit(row, coef[lo:hi])
			}
		}
	}
	// First pass: dead rows, then nonzeros per column, turned into each
	// column's offset. Both passes poll ctx before each window of
	// pollColumns columns of a brick.
	start := make([]int, nv+1)
	for i := 0; i < p.N; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for k := range p.B[i] {
			if p.deadLocalRow(i, k) {
				local[i*p.S+k] = -1
				continue
			}
			local[i*p.S+k] = int32(len(full))
			full = append(full, int32(p.R+i*p.S+k))
			mp.B = append(mp.B, float64(p.LocalRHS[i][k]))
		}
		for lo := 0; lo < p.T; lo += pollColumns {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			hi := min(lo+pollColumns, p.T)
			for j := lo; j < hi; j++ {
				f := i*p.T + j
				mp.Obj[f] = float64(p.Obj[i][j])
				mp.Lower[f] = float64(p.Lower[i][j])
				mp.Upper[f] = float64(p.Upper[i][j])
			}
			visitRows(i, lo, hi, func(_ int32, coef []int64) {
				for j, v := range coef {
					if v != 0 {
						start[i*p.T+lo+j+1]++
					}
				}
			})
		}
	}
	mp.Rel = make([]lp.Relation, len(mp.B))
	for k := range mp.Rel {
		mp.Rel[k] = lp.EQ
	}
	for f := 0; f < nv; f++ {
		start[f+1] += start[f]
	}
	// Second pass: rows are visited in increasing order, so every column
	// lists its rows sorted.
	rows := make([]int32, start[nv])
	vals := make([]float64, start[nv])
	next := append([]int(nil), start[:nv]...)
	for i := 0; i < p.N; i++ {
		for lo := 0; lo < p.T; lo += pollColumns {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			visitRows(i, lo, min(lo+pollColumns, p.T), func(row int32, coef []int64) {
				for j, v := range coef {
					if v != 0 {
						f := i*p.T + lo + j
						rows[next[f]], vals[next[f]] = row, float64(v)
						next[f]++
					}
				}
			})
		}
	}
	for f := range mp.Cols {
		a, b := start[f], start[f+1]
		mp.Cols[f] = lp.Column{Rows: rows[a:b:b], Vals: vals[a:b:b]}
	}
	return mp, full, nil
}

// pollColumns is how many columns of a brick Flatten handles between two
// polls of the context.
const pollColumns = 1024

// deadLocalRow reports whether brick i's local row k touches only fixed
// columns and their fixed values meet its right-hand side. The sum is exact
// int64; a product or sum that would overflow keeps the row.
func (p *Problem) deadLocalRow(i, k int) bool {
	lo, up := p.Lower[i], p.Upper[i]
	var sum int64
	for j, v := range p.B[i][k] {
		if v == 0 {
			continue
		}
		if lo[j] != up[j] {
			return false
		}
		prod := v * lo[j]
		if lo[j] != 0 && (prod/lo[j] != v || (lo[j] == -1 && v == math.MinInt64)) {
			return false
		}
		s := sum + prod
		if (prod > 0 && s < sum) || (prod < 0 && s > sum) {
			return false
		}
		sum = s
	}
	return sum == p.LocalRHS[i][k]
}

// expandRay maps a Farkas ray over the flat rows back to the full row order
// of CertifiesInfeasible (R + N·S entries), with 0 on every dropped row.
// A dead row holds at every point of the box, so a zero price on it
// changes neither side of the Farkas inequality. Nil stays nil.
func expandRay(ray []float64, full []int32, m int) []float64 {
	if ray == nil {
		return nil
	}
	out := make([]float64, m)
	for k, row := range full {
		out[row] = ray[k]
	}
	return out
}

// bbRun is one exact-engine run: the answer in brick form, the final ilp
// status and the branch-and-bound nodes it spent (Result.Nodes counts
// augmentation steps instead when augmentation decided).
type bbRun struct {
	res    *Result
	status ilp.Status
	nodes  int
}

// runBranchBound runs the exact engine on p and converts the answer back
// to brick form; sp is the probe's bb span. With augment set it is the
// EngineAuto order: the root LP relaxation decides first, and the
// augmentation heuristic runs (as an nfold_augment span under bb) only on
// a root that is fractional or hit its iteration limit. An infeasible root
// has no integer point for augmentation to find, and an integral root is
// already an answer. A successful augmentation of a zero-objective problem
// ends the search; otherwise branching continues from the same prepared LP
// and root solution, and the better verified answer wins.
//
// Warm starts stay within one solve (parent → child), where the
// factorization is live. Carrying a root basis across solves — between the
// probes of a guess search, or between the re-solves of a scheduling
// session — was measured twice and never paid: a cross-solve restore must
// refactorize from scratch (O(m³)), which costs more than the few dozen
// pivots the cold root solve needs, and it never pruned a root.
func (p *Problem) runBranchBound(ctx context.Context, maxNodes int, firstFeasible, augment bool, o *Options, sp trace.Span) (bbRun, error) {
	mp, full, err := p.Flatten(ctx)
	if err != nil {
		return bbRun{}, err
	}
	iopts := &ilp.Options{
		MaxNodes: maxNodes, FirstFeasible: firstFeasible, NoWarmStart: o.NoWarmStart,
		Trace: sp,
	}
	var aug *Result
	if augment {
		iopts.OnUndecidedRoot = func() (bool, error) {
			asp := sp.Child("nfold_augment")
			res, err := p.solveAugment(ctx, o.Augment, o.Template)
			endEngineSpan(asp, res, err)
			if err != nil {
				return false, err
			}
			aug = res
			return res.Status == Feasible && !hasObjective(p), nil
		}
	}
	res, err := ilp.SolveCtx(ctx, mp, iopts)
	if err != nil {
		return bbRun{}, err
	}
	run := bbRun{status: res.Status, nodes: res.Nodes}
	if res.Status == ilp.Stopped {
		// Augmentation decided: its steps stay the node count; the root
		// solve's pivots are added.
		aug.Pivots = res.Pivots
		run.res = aug
		return run, nil
	}
	out := &Result{
		Engine: EngineBranchBound, Nodes: res.Nodes, Pivots: res.Pivots, WarmHits: res.WarmHits,
		InfeasibleRay: expandRay(res.InfeasibleRay, full, p.R+p.N*p.S),
	}
	switch res.Status {
	case ilp.Infeasible:
		out.Status = Infeasible
	case ilp.NodeLimit:
		out.Status = Unknown
	default:
		if err := ctx.Err(); err != nil {
			return bbRun{}, err // skip the exact check of a canceled solve
		}
		x := make([][]int64, p.N)
		for i := 0; i < p.N; i++ {
			x[i] = make([]int64, p.T)
			for j := 0; j < p.T; j++ {
				x[i][j] = int64(res.X[i*p.T+j] + 0.5*sign(res.X[i*p.T+j]))
			}
		}
		if err := p.Check(x); err != nil {
			return bbRun{}, fmt.Errorf("nfold: branch-and-bound produced an invalid solution: %w", err)
		}
		out.Status = Feasible
		out.X = x
		out.Obj = p.Objective(x)
	}
	// Prefer the better verified answer when both engines succeeded.
	run.res = out
	if aug != nil && aug.Status == Feasible && (out.Status != Feasible || aug.Obj <= out.Obj) {
		run.res = aug
	}
	return run, nil
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
