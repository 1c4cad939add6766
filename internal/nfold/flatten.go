package nfold

import (
	"context"
	"fmt"

	"ccsched/internal/ilp"
	"ccsched/internal/lp"
	"ccsched/internal/trace"
)

// Flatten expands the N-fold into a plain MILP over N*T variables (brick i,
// column j maps to flat index i*T+j) for the exact branch-and-bound engine.
func (p *Problem) Flatten() (*ilp.Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nv := p.N * p.T
	mp := ilp.NewProblem(nv)
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.T; j++ {
			f := i*p.T + j
			mp.Obj[f] = float64(p.Obj[i][j])
			mp.Lower[f] = float64(p.Lower[i][j])
			mp.Upper[f] = float64(p.Upper[i][j])
		}
	}
	// Global rows span all bricks.
	for k := 0; k < p.R; k++ {
		row := make([]float64, nv)
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.T; j++ {
				row[i*p.T+j] = float64(p.A[i][k][j])
			}
		}
		mp.AddRow(row, lp.EQ, float64(p.GlobalRHS[k]))
	}
	// Local rows touch one brick each.
	for i := 0; i < p.N; i++ {
		for k := 0; k < p.S; k++ {
			row := make([]float64, nv)
			for j := 0; j < p.T; j++ {
				row[i*p.T+j] = float64(p.B[i][k][j])
			}
			mp.AddRow(row, lp.EQ, float64(p.LocalRHS[i][k]))
		}
	}
	return mp, nil
}

// solveBranchBound runs the exact fallback engine and converts the answer
// back to brick form. Warm starts stay within one solve (parent → child),
// where the factorization is live. Carrying a root basis across solves —
// between the probes of a guess search, or between the re-solves of a
// scheduling session — was measured twice and never paid: a cross-solve
// restore must refactorize from scratch (O(m³)), which costs more than the
// few dozen pivots the cold root solve needs, and it never pruned a root.
func (p *Problem) solveBranchBound(ctx context.Context, maxNodes int, firstFeasible bool, o *Options) (*Result, error) {
	mp, err := p.Flatten()
	if err != nil {
		return nil, err
	}
	sp := o.Trace.Child("bb")
	iopts := &ilp.Options{
		MaxNodes: maxNodes, FirstFeasible: firstFeasible, NoWarmStart: o.NoWarmStart,
		Trace: sp,
	}
	res, err := ilp.SolveCtx(ctx, mp, iopts)
	if err != nil {
		sp.End(trace.A("err", 1))
		return nil, err
	}
	sp.End(
		trace.A("status", int64(res.Status)), trace.A("nodes", int64(res.Nodes)),
		trace.A("pivots", int64(res.Pivots)), trace.A("warm_hits", int64(res.WarmHits)),
	)
	out := &Result{
		Engine: EngineBranchBound, Nodes: res.Nodes, Pivots: res.Pivots, WarmHits: res.WarmHits,
		InfeasibleRay: res.InfeasibleRay,
	}
	switch res.Status {
	case ilp.Infeasible:
		out.Status = Infeasible
		return out, nil
	case ilp.NodeLimit:
		out.Status = Unknown
		return out, nil
	}
	x := make([][]int64, p.N)
	for i := 0; i < p.N; i++ {
		x[i] = make([]int64, p.T)
		for j := 0; j < p.T; j++ {
			x[i][j] = int64(res.X[i*p.T+j] + 0.5*sign(res.X[i*p.T+j]))
		}
	}
	if err := p.Check(x); err != nil {
		return nil, fmt.Errorf("nfold: branch-and-bound produced an invalid solution: %w", err)
	}
	out.Status = Feasible
	out.X = x
	out.Obj = p.Objective(x)
	return out, nil
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
