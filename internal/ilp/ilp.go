// Package ilp implements a branch-and-bound mixed-integer linear program
// solver on top of the internal/lp simplex. It is the repository's exact
// engine for the paper's configuration N-fold ILPs (see
// internal/nfold) and is deliberately simple: LP-relaxation bounding,
// most-fractional branching, depth-first search with a node budget.
//
// The search is incremental end to end: the LP is prepared once (sparse
// columns plus pooled dense scratch), nodes patch a single mutable pair of
// bound arrays with push/pop edits instead of copying bounds per node, and
// each child carries its parent's simplex basis so the warm dual restore can
// prune infeasible children in a few pivots. Warm starts are verdict-only
// (see lp.Prepared.SolveBounds), so the explored tree — and therefore the
// returned solution — is bit-identical with NoWarmStart set.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ccsched/internal/faultinject"
	"ccsched/internal/lp"
	"ccsched/internal/trace"
)

// Problem is a mixed-integer LP: the embedded lp.Problem plus integrality
// markers.
type Problem struct {
	lp.Problem
	// Integer marks which variables must take integral values.
	Integer []bool
}

// NewProblem allocates a MILP with n all-integer variables, bounds [0, +Inf).
func NewProblem(n int) *Problem {
	p := &Problem{Problem: *lp.NewProblem(n)}
	p.Integer = make([]bool, n)
	for j := range p.Integer {
		p.Integer[j] = true
	}
	return p
}

// Status classifies the solver outcome.
type Status int

const (
	// Optimal means a provably optimal integral solution was found.
	Optimal Status = iota
	// Infeasible means no integral solution exists.
	Infeasible
	// NodeLimit means the search budget was exhausted; Best may still hold
	// an incumbent.
	NodeLimit
	// Stopped means Options.OnUndecidedRoot ended the search after the
	// root relaxation; X is nil.
	Stopped
)

// String names the status for logs and error messages.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of explored branch-and-bound nodes
	// (default 200000).
	MaxNodes int
	// FirstFeasible stops at the first integral solution; natural for the
	// zero-objective feasibility ILPs of the PTAS.
	FirstFeasible bool
	// NoWarmStart disables basis reuse between nodes. Results are
	// bit-identical either way — warm starts only prune provably infeasible
	// nodes faster — so this exists as a measurement baseline and
	// determinism escape hatch.
	NoWarmStart bool
	// Trace is the enclosing trace span (normally the nfold bb span); the
	// search records bb_nodes batch spans (one per bbTraceBatch explored
	// nodes, carrying that batch's node/pivot/warm-hit deltas) under it. The
	// zero Span disables recording at one flag check per node; results are
	// identical either way.
	Trace trace.Span
	// OnUndecidedRoot, when set, runs once after the root relaxation solved
	// without deciding the problem: its optimum is fractional, or the LP hit
	// its iteration limit. It lets a caller try a cheaper heuristic only
	// where the root LP leaves the answer open. Returning true ends the
	// search with Status Stopped; false continues branching from the same
	// prepared LP and root solution, so the explored tree is unchanged. An
	// error aborts the search and is returned as is. An infeasible or
	// integral root never calls it.
	OnUndecidedRoot func() (stop bool, err error)
}

// Result is the solver output.
type Result struct {
	Status Status
	// X holds the best integral assignment found (nil if none).
	X []float64
	// Obj is the objective of X.
	Obj float64
	// Nodes counts explored branch-and-bound nodes.
	Nodes int
	// Pivots counts simplex pivots across every node's LP solve, including
	// warm dual-restore pivots.
	Pivots int
	// WarmHits counts nodes pruned by the warm dual restore without a cold
	// LP solve.
	WarmHits int
	// InfeasibleRay is the root relaxation's Farkas ray when the whole
	// problem was refuted at the root by a cold LP solve: a row-price
	// vector (in row order) certifying the root LP infeasible. Callers can
	// re-verify it against a structurally related problem to prove that
	// problem infeasible without solving (see
	// nfold.Problem.CertifiesInfeasible). Nil otherwise.
	InfeasibleRay []float64
}

const intTol = 1e-6

// bbTraceBatch is how many explored nodes one bb_nodes span covers. Per-node
// spans would blow the cardinality cap on any non-trivial search; batches
// keep the timeline proportional to wall time instead of tree size.
const bbTraceBatch = 256

// bbTracer emits bb_nodes batch spans from a branch-and-bound loop. All
// methods are no-ops when the enclosing span is disabled (one bool check per
// node), and it only reads already-updated Result counters, so it can never
// influence the search.
type bbTracer struct {
	on         bool
	parent     trace.Span
	cur        trace.Span
	inBatch    int
	n0, p0, w0 int
}

func newBBTracer(parent trace.Span) bbTracer {
	return bbTracer{on: parent.Enabled(), parent: parent}
}

// tick is called once per explored node, after the node counters updated.
func (t *bbTracer) tick(res *Result) {
	if !t.on {
		return
	}
	if t.inBatch == 0 {
		t.cur = t.parent.Child("bb_nodes")
		t.n0, t.p0, t.w0 = res.Nodes-1, res.Pivots, res.WarmHits
	}
	t.inBatch++
	if t.inBatch >= bbTraceBatch {
		t.flush(res)
	}
}

// flush closes the open batch span, if any, with the batch's deltas.
func (t *bbTracer) flush(res *Result) {
	if !t.on || t.inBatch == 0 {
		return
	}
	t.cur.End(
		trace.A("nodes", int64(res.Nodes-t.n0)),
		trace.A("pivots", int64(res.Pivots-t.p0)),
		trace.A("warm_hits", int64(res.WarmHits-t.w0)),
	)
	t.inBatch = 0
}

// hook runs an OnUndecidedRoot callback. The open batch span is closed
// first, so bb_nodes spans time node work only and never the callback.
func (t *bbTracer) hook(res *Result, fn func() (bool, error)) (bool, error) {
	t.flush(res)
	return fn()
}

// stopped ends a search that OnUndecidedRoot asked to stop (or that the
// callback failed).
func stopped(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res.Status = Stopped
	return res, nil
}

// Solve runs branch and bound. A nil opts uses defaults.
func Solve(p *Problem, opts *Options) (*Result, error) {
	return SolveCtx(context.Background(), p, opts)
}

// node is one open branch-and-bound node: the bound patch distinguishing it
// from its parent and the parent's terminal basis for the warm restore.
// Bounds are materialized lazily by replaying patches on the shared arrays.
type node struct {
	depth    int // patches on the path from the root (0 for the root itself)
	patchVar int // -1 for the root
	lo, up   float64
	parent   *lp.Basis
}

// applied records one in-effect bound patch so backtracking can undo it.
type applied struct {
	v      int
	lo, up float64
}

// SolveCtx is Solve under a context. Cancellation is checked before every
// branch-and-bound node and inside each node's LP relaxation (see
// lp.Prepared.SolveBounds), so a canceled context aborts the search with
// ctx.Err() within one node — the promptness guarantee the PTAS's
// speculative makespan-guess search depends on.
func SolveCtx(ctx context.Context, p *Problem, opts *Options) (*Result, error) {
	if len(p.Integer) != p.NumVars {
		return nil, errors.New("ilp: Integer length mismatch")
	}
	maxNodes := 200000
	first := false
	warmStart := true
	var tsp trace.Span
	var onRoot func() (bool, error)
	if opts != nil {
		if opts.MaxNodes > 0 {
			maxNodes = opts.MaxNodes
		}
		first = opts.FirstFeasible
		warmStart = !opts.NoWarmStart
		tsp = opts.Trace
		onRoot = opts.OnUndecidedRoot
	}
	tr := newBBTracer(tsp)
	prep, err := lp.Prepare(ctx, &p.Problem)
	if err != nil {
		return nil, err
	}
	defer prep.Release()
	// The single mutable bound pair every node patches in place.
	lower := append([]float64(nil), p.Lower...)
	upper := append([]float64(nil), p.Upper...)
	// Integer variables get integral bounds up front.
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		if !math.IsInf(lower[j], -1) {
			lower[j] = math.Ceil(lower[j] - intTol)
		}
		if !math.IsInf(upper[j], 1) {
			upper[j] = math.Floor(upper[j] + intTol)
		}
	}
	stack := []node{{patchVar: -1}}
	var path []applied
	res := &Result{Status: Infeasible}
	var sol lp.Solution
	var bestObj = math.Inf(1)
	hitLimit := false
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Check("ilp.node"); err != nil {
			return nil, err
		}
		if res.Nodes >= maxNodes {
			hitLimit = true
			break
		}
		res.Nodes++
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Rewind the applied patches to this node's parent, then apply its
		// own patch. The stack is LIFO, so the shared bound arrays always
		// hold exactly the popped node's path.
		target := nd.depth
		if nd.patchVar >= 0 {
			target = nd.depth - 1
		}
		for len(path) > target {
			e := path[len(path)-1]
			path = path[:len(path)-1]
			lower[e.v], upper[e.v] = e.lo, e.up
		}
		if nd.patchVar >= 0 {
			path = append(path, applied{nd.patchVar, lower[nd.patchVar], upper[nd.patchVar]})
			lower[nd.patchVar], upper[nd.patchVar] = nd.lo, nd.up
		}
		warm := nd.parent
		if !warmStart {
			warm = nil
		}
		if err := prep.SolveBounds(ctx, lower, upper, warm, &sol); err != nil {
			return nil, err
		}
		res.Pivots += sol.Iterations
		if sol.Warm {
			res.WarmHits++
		}
		tr.tick(res)
		if nd.patchVar < 0 && sol.Status == lp.Infeasible {
			res.InfeasibleRay = prep.InfeasibilityRay()
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return nil, errors.New("ilp: LP relaxation unbounded; bound the integer variables")
		case lp.IterLimit:
			// Treat as unexplored: conservative, keeps soundness of pruning.
			hitLimit = true
			if nd.patchVar < 0 && onRoot != nil {
				if stop, err := tr.hook(res, onRoot); err != nil || stop {
					return stopped(res, err)
				}
			}
			continue
		}
		if sol.Obj >= bestObj-1e-9 && res.X != nil {
			continue // bound
		}
		// Find the most fractional integer variable.
		branch, frac := -1, 0.0
		for j, isInt := range p.Integer {
			if !isInt {
				continue
			}
			f := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if f > intTol && f > frac {
				branch, frac = j, f
			}
		}
		if branch < 0 {
			// Integral solution.
			x := append([]float64(nil), sol.X...)
			for j, isInt := range p.Integer {
				if isInt {
					x[j] = math.Round(x[j])
				}
			}
			obj := 0.0
			for j := range x {
				obj += p.Obj[j] * x[j]
			}
			if obj < bestObj {
				bestObj = obj
				res.X = x
				res.Obj = obj
			}
			if first {
				res.Status = Optimal
				tr.flush(res)
				return res, nil
			}
			continue
		}
		if nd.patchVar < 0 && onRoot != nil {
			if stop, err := tr.hook(res, onRoot); err != nil || stop {
				return stopped(res, err)
			}
		}
		// Branch: explore the side nearest the fractional value first
		// (pushed last so it pops first). Both children share the parent's
		// terminal basis for the warm restore.
		var pb *lp.Basis
		if warmStart {
			pb = prep.CaptureBasis()
		}
		v := sol.X[branch]
		lowChild := node{depth: nd.depth + 1, patchVar: branch, lo: lower[branch], up: math.Floor(v), parent: pb}
		highChild := node{depth: nd.depth + 1, patchVar: branch, lo: math.Ceil(v), up: upper[branch], parent: pb}
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, highChild, lowChild)
		} else {
			stack = append(stack, lowChild, highChild)
		}
	}
	tr.flush(res)
	if res.X != nil {
		if hitLimit {
			res.Status = NodeLimit
		} else {
			res.Status = Optimal
		}
		return res, nil
	}
	if hitLimit {
		res.Status = NodeLimit
	}
	return res, nil
}
