package nfold

import (
	"context"
	"fmt"

	"ccsched/internal/trace"
)

// Engine identifies which solver produced a result.
type Engine string

const (
	// EngineAugment is the Graver-style augmentation heuristic.
	EngineAugment Engine = "augment"
	// EngineBranchBound is the exact LP-based branch and bound.
	EngineBranchBound Engine = "branch-bound"
	// EngineAuto lets the branch-and-bound root LP relaxation decide first
	// and runs augmentation only on a fractional root, so answers are
	// always exact.
	EngineAuto Engine = "auto"
)

// Status classifies a solve outcome.
type Status int

const (
	// Feasible means X holds a verified solution.
	Feasible Status = iota
	// Infeasible means no solution exists (exact engines only).
	Infeasible
	// Unknown means the engine gave up within its budget.
	Unknown
)

// String names the status for logs and error messages.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options selects and tunes the engines.
type Options struct {
	// Engine picks the solver; default EngineAuto.
	Engine Engine
	// Augment tunes the augmentation engine.
	Augment *AugmentOptions
	// MaxNodes caps branch-and-bound nodes (default 200000).
	MaxNodes int
	// FirstFeasible stops branch and bound at the first integral solution;
	// the right choice for the PTAS's zero-objective feasibility ILPs.
	FirstFeasible bool
	// NoWarmStart disables LP basis reuse inside the exact engine's
	// branch-and-bound solves. Results are bit-identical either way; see
	// ilp.Options.NoWarmStart.
	NoWarmStart bool
	// Template shares the augmentation move-set cache across a family of
	// related solves (the probes of one PTAS guess search). Nil disables
	// cross-solve sharing.
	Template *Template
	// Trace is the enclosing trace span (normally the guess probe's);
	// engine runs record a bb child span under it (EngineAuto nests its
	// nfold_augment span inside bb) or, for EngineAugment, an nfold_augment
	// child. The zero Span disables recording. Observational only: results
	// are identical traced or not.
	Trace trace.Span
}

// Result is a solve outcome. X is indexed [brick][col].
type Result struct {
	Status Status
	X      [][]int64
	Obj    int64
	Engine Engine
	// Nodes counts branch-and-bound nodes, or augmentation steps when
	// augmentation produced the result.
	Nodes int
	// Pivots counts simplex pivots across the exact engine's LP solves,
	// including the root solve that preceded an EngineAuto augmentation
	// (zero for EngineAugment results).
	Pivots int
	// WarmHits counts branch-and-bound nodes pruned by the warm dual
	// restore (see internal/lp); zero with NoWarmStart.
	WarmHits int
	// InfeasibleRay is a Farkas certificate of this problem's LP-relaxation
	// infeasibility when the exact engine refuted it at the root with a
	// cold LP solve (nil otherwise). Re-verify it against a related problem
	// with CertifiesInfeasible to prove that problem Infeasible without an
	// engine run.
	InfeasibleRay []float64
}

// Solve dispatches to the selected engine. With EngineAuto (default), the
// branch-and-bound root LP relaxation runs first: an infeasible root makes
// the answer Infeasible and an integral root makes it Feasible. Only a
// fractional (or iteration-limited) root runs the augmentation heuristic;
// if it stalls, branching continues from that root, so the combined answer
// is never Unknown unless the node budget is exhausted. Either way one
// Flatten, one LP preparation and one root solve are spent.
func Solve(p *Problem, opts *Options) (*Result, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx is Solve under a context. Cancellation is polled at every
// augmentation descent step and every branch-and-bound node (and inside
// each node's LP relaxation), so a canceled context aborts the solve with
// ctx.Err() within one iteration of whichever engine is running. The
// parallel PTAS guess search cancels losing speculative probes through this
// path.
func SolveCtx(ctx context.Context, p *Problem, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Engine == "" {
		o.Engine = EngineAuto
	}
	maxNodes := o.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	switch o.Engine {
	case EngineAugment:
		sp := o.Trace.Child("nfold_augment")
		res, err := p.solveAugment(ctx, o.Augment, o.Template)
		endEngineSpan(sp, res, err)
		return res, err
	case EngineBranchBound:
		return p.solveBranchBound(ctx, maxNodes, o.FirstFeasible, false, &o)
	case EngineAuto:
		return p.solveBranchBound(ctx, maxNodes, o.FirstFeasible || !hasObjective(p), true, &o)
	default:
		return nil, fmt.Errorf("nfold: unknown engine %q", o.Engine)
	}
}

// endEngineSpan closes an engine-run span with the run's counters. It only
// reads already-computed Result fields, so it cannot influence the solve.
func endEngineSpan(sp trace.Span, res *Result, err error) {
	if !sp.Enabled() {
		return
	}
	if err != nil {
		sp.End(trace.A("err", 1))
		return
	}
	sp.End(
		trace.A("status", int64(res.Status)),
		trace.A("steps", int64(res.Nodes)),
	)
}
