// Package ptas implements the three polynomial-time approximation schemes
// of Section 4 of Jansen, Lassota, Maack (SPAA 2020): splittable
// (Theorems 10/11), non-preemptive (Theorem 14) and preemptive (Theorem 19)
// Class-Constrained Scheduling.
//
// All three follow the paper's dual-approximation shape, implemented once in
// runScheme (scheme.go): pick δ with
// 1/δ ∈ Z from the requested ε, search for the smallest accepted makespan
// guess T, and per guess (a) simplify the instance by grouping and rounding,
// (b) encode the existence of a well-structured schedule as a configuration
// ILP with N-fold structure (one brick per class), (c) solve it with
// internal/nfold, and (d) transform a solution back into a feasible
// schedule with makespan (1+O(δ))T.
//
// Deviations from the paper, both recorded in the "Paper-to-code map" of
// docs/ARCHITECTURE.md:
//
//   - The makespan search walks a multiplicative (1+δ) grid between the
//     certified lower bound and the constant-factor algorithm's makespan
//     instead of an exact binary search; this costs one extra (1+δ) factor,
//     absorbed by the O(δ) analysis, and caps the number of N-fold solves
//     at O(log_{1+δ} 7/3).
//   - The preemptive scheme restricts modules (0-1 layer vectors) to
//     contiguous layer intervals. The paper's module set has 2^Θ(1/δ²)
//     elements and its configuration set is doubly exponential, which no
//     implementation can enumerate; the interval restriction keeps the
//     construction sound (every emitted schedule is validated) at the cost
//     of completeness in degenerate cases.
package ptas

import (
	"fmt"
	"math"
	"math/big"

	"ccsched/internal/core"
	"ccsched/internal/nfold"
	"ccsched/internal/trace"
)

// Options configures a PTAS run.
type Options struct {
	// Epsilon is the target accuracy; the schedule's makespan is at most
	// (1+O(Epsilon))·OPT. It is internally converted to δ = 1/⌈1/ε⌉.
	Epsilon float64
	// Engine selects the N-fold engine (default auto with exact fallback).
	Engine nfold.Engine
	// MaxNodes caps the exact engine's branch-and-bound nodes per guess.
	MaxNodes int
	// MaxConfigs guards the configuration enumeration; guesses whose
	// configuration set would exceed it are rejected with an error
	// (default 200000).
	MaxConfigs int
	// HugeMThreshold is the machine count above which the splittable
	// scheme switches to the Theorem 11 compact treatment. Zero selects
	// DefaultHugeMThreshold.
	HugeMThreshold int64
	// Parallelism is the number of concurrent speculative makespan-guess
	// probes (see internal/ptas/search.go). Values ≤ 1 run the classic
	// sequential binary search on the calling goroutine; larger values add
	// speculation without changing the result — accepted guesses and
	// schedules are bit-identical for any Parallelism.
	Parallelism int
	// Cache memoizes guess feasibility verdicts (keyed by scaled instance,
	// guess, δ and engine budgets) across calls, so ε-refinement sweeps and
	// repeated solves of identical workloads skip already-decided N-fold
	// ILPs. Nil disables caching. A single Cache is safe to share between
	// concurrent solves.
	Cache *Cache
	// NoWarmStart disables LP basis reuse inside the exact engine's
	// branch-and-bound solves. Warm starts are verdict-only (see
	// internal/lp), so accepted guesses, probe counts and schedules are
	// bit-identical either way; this is the measurement baseline and
	// determinism escape hatch checked by the warm-parity tests.
	NoWarmStart bool
	// Session carries warm state across the re-solves of a scheduling
	// session: guess templates and the previous accepted guess (seeding the
	// search window). All reuse is verdict-preserving, so results are
	// bit-identical to a cold solve of the same instance; solves with a
	// Session run the sequential guess search regardless of Parallelism.
	// A SessionState must not be shared by concurrent solves.
	Session *SessionState
	// Trace is the enclosing span of this solve's timeline (the zero Span
	// disables tracing at one nil check per would-be span). The schemes
	// re-point it at the current stage span as they descend — variant
	// solvers hang guess_search/template_build spans off it, probes hang
	// their engine spans off the search span — so the recorded hierarchy
	// mirrors the call tree. Tracing is observational only: spans carry
	// wall times and already-computed counters, and traced solves return
	// bit-identical results (pinned by the trace-parity tests).
	Trace trace.Span
}

func (o Options) hugeMThreshold() int64 {
	if o.HugeMThreshold > 0 {
		return o.HugeMThreshold
	}
	return DefaultHugeMThreshold
}

func (o Options) delta() (int64, error) {
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		return 0, fmt.Errorf("ptas: epsilon %v outside (0,1]", o.Epsilon)
	}
	return int64(math.Ceil(1/o.Epsilon - 1e-12)), nil
}

func (o Options) maxConfigs() int {
	if o.MaxConfigs > 0 {
		return o.MaxConfigs
	}
	return 200000
}

func (o Options) nfoldOptions(tmpl *nfold.Template) *nfold.Options {
	maxNodes := o.MaxNodes
	if maxNodes <= 0 {
		// Probes at infeasible guesses must not explode: reject after a
		// bounded search (a rejected-but-feasible guess only nudges the
		// accepted makespan up one grid step).
		maxNodes = 4000
	}
	return &nfold.Options{
		Engine: o.Engine, MaxNodes: maxNodes, FirstFeasible: true,
		NoWarmStart: o.NoWarmStart, Template: tmpl,
	}
}

// Report captures per-run diagnostics of a scheme solve (Result.Report).
type Report struct {
	// Delta is the internal accuracy 1/g.
	InvDelta int64 `json:"inv_delta,omitempty"`
	// Guess is the accepted makespan guess T.
	Guess int64 `json:"guess,omitempty"`
	// Guesses is the number of makespan guesses tried.
	Guesses int `json:"guesses,omitempty"`
	// NFold holds the parameters of the last solved N-fold.
	NFold nfold.Params `json:"nfold"`
	// Engine is the engine that produced the accepted solution.
	Engine nfold.Engine `json:"engine,omitempty"`
	// TheoreticalCostLog2 is log2 of the Theorem 1 bound for the accepted
	// N-fold.
	TheoreticalCostLog2 float64 `json:"theoretical_cost_log2,omitempty"`
	// CacheHits counts guess probes answered from the feasibility cache
	// during this search.
	CacheHits int `json:"cache_hits,omitempty"`
	// CertHits is always zero. It counted probes refuted by a Farkas
	// certificate carried between session re-solves, a mechanism that never
	// fired and was removed; the field stays for readers of the report.
	CertHits int `json:"cert_hits,omitempty"`
	// BBNodes, BBPivots and WarmHits aggregate the exact engine's
	// branch-and-bound nodes, simplex pivots, and warm-restore prunes across
	// every probe this search solved (cache hits add nothing). Under
	// Parallelism > 1 the set of completed speculative probes varies run to
	// run, so these are diagnostics rather than deterministic quantities.
	BBNodes  int64 `json:"bb_nodes,omitempty"`
	BBPivots int64 `json:"bb_pivots,omitempty"`
	WarmHits int64 `json:"warm_hits,omitempty"`
}

// guessGrid returns the multiplicative (1+δ)-grid of integral makespan
// guesses covering [lo, hi], smallest first, always including hi.
func guessGrid(lo, hi int64, g int64) []int64 {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	var out []int64
	cur := lo
	for cur < hi {
		out = append(out, cur)
		// next = ceil(cur * (1+1/g)) = ceil(cur*(g+1)/g), strictly larger.
		next := (cur*(g+1) + g - 1) / g
		if next <= cur {
			next = cur + 1
		}
		cur = next
	}
	out = append(out, hi)
	return out
}

// ceilRat returns ⌈r⌉ for a nonnegative rational.
func ceilRat(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if new(big.Int).Mul(q, r.Denom()).Cmp(r.Num()) != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}

// ceilDiv is ⌈a/b⌉ for positive a, b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// lowerBoundInt returns ⌈LB⌉ for the variant's certified lower bound.
func lowerBoundInt(in *core.Instance, v core.Variant) (int64, error) {
	lb, err := core.LowerBound(in, v)
	if err != nil {
		return 0, err
	}
	out := ceilRat(lb)
	if out < 1 {
		out = 1
	}
	return out, nil
}
