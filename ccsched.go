// Package ccsched is a Go implementation of "Approximation Algorithms for
// Scheduling with Class Constraints" (Jansen, Lassota, Maack, SPAA 2020).
//
// The Class-Constrained Scheduling problem assigns n jobs — each with a
// processing time and a class — to m identical machines so the makespan is
// minimized, under the constraint that every machine runs jobs from at most
// c distinct classes. Three placement semantics are supported: splittable,
// preemptive and non-preemptive (see Variant).
//
// Solve is the recommended entry point: it selects a variant and algorithm
// tier from an Options value, runs the PTAS makespan-guess search with a
// feasibility cache, honors context cancellation and deadlines down to the
// individual ILP iteration, and returns the schedule together with the
// certified lower bound.
//
// The algorithm tiers from the paper, all reached through Solve, are:
//
//   - TierApprox, the strongly polynomial constant-factor approximations:
//     2·OPT for the splittable and preemptive variants, 7/3·OPT for the
//     non-preemptive one;
//   - TierPTAS, the polynomial-time approximation schemes with makespan
//     (1+ε)·OPT, built on configuration ILPs with N-fold structure;
//   - TierExact, exact optima for small instances (ratio measurement),
//     non-preemptive and splittable only.
//
// Certified lower bounds live in LowerBound. Instances can be built
// directly, parsed from the textual format (ParseInstance), or generated
// from the built-in workload families (Generate).
//
// Everything is pure Go standard library; the LP/ILP/N-fold machinery the
// paper depends on is implemented in the internal packages of this module.
// See docs/ARCHITECTURE.md for the paper-to-code map.
package ccsched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/exact"
	"ccsched/internal/generator"
	"ccsched/internal/panicsafe"
	"ccsched/internal/ptas"
	"ccsched/internal/rat"
	"ccsched/internal/trace"
)

// Core model re-exports.
type (
	// Instance is a CCS instance: processing times, classes, m machines
	// with c class slots each.
	Instance = core.Instance
	// Variant selects splittable, preemptive or non-preemptive semantics.
	Variant = core.Variant
	// SplitSchedule is an explicit splittable schedule.
	SplitSchedule = core.SplitSchedule
	// SplitPiece is one fragment of a job in a SplitSchedule.
	SplitPiece = core.SplitPiece
	// PreemptivePiece is one fragment of a job in a PreemptiveSchedule.
	PreemptivePiece = core.PreemptivePiece
	// CompactSplitSchedule run-length encodes splittable schedules for
	// exponential machine counts.
	CompactSplitSchedule = core.CompactSplitSchedule
	// MachineGroup is a run of identical machines in a CompactSplitSchedule.
	MachineGroup = core.MachineGroup
	// GroupPiece is one per-machine piece in a MachineGroup.
	GroupPiece = core.GroupPiece
	// PreemptiveSchedule carries explicit piece start times.
	PreemptiveSchedule = core.PreemptiveSchedule
	// NonPreemptiveSchedule maps each job to one machine.
	NonPreemptiveSchedule = core.NonPreemptiveSchedule
	// GeneratorConfig parameterizes the workload families.
	GeneratorConfig = generator.Config
	// PTASOptions configures the approximation schemes.
	PTASOptions = ptas.Options
	// PTASReport carries per-run diagnostics of a PTAS solve (accepted
	// guess, probes tried, N-fold parameters, engine, cache hits).
	PTASReport = ptas.Report
	// FeasibilityCache memoizes makespan-guess feasibility verdicts across
	// Solve calls; see NewFeasibilityCache. Safe for concurrent use.
	FeasibilityCache = ptas.Cache
	// SolveTrace is the hierarchical span timeline a traced Solve attaches
	// to Result.Trace: per-stage wall times (guess search, probes, N-fold
	// engines, B&B batches) with the layer's counters as span attributes.
	// See Options.Trace; internal/trace documents the format and bounds.
	SolveTrace = trace.Trace
	// TraceSpan is one span of a SolveTrace.
	TraceSpan = trace.SpanRecord
	// TraceAttr is one int64 attribute on a TraceSpan.
	TraceAttr = trace.Attr
	// TraceAggregate is a summary row for spans beyond the per-solve cap.
	TraceAggregate = trace.Aggregate
	// Rat is the exact rational used for schedule piece sizes and start
	// times: an immutable int64-fraction value type that transparently
	// falls back to *big.Rat on overflow (see internal/rat). Results at
	// the API boundary (Makespan, Guess, LB, LowerBound) remain *big.Rat;
	// use RatValue / RatFromBig to convert when building schedules by
	// hand.
	Rat = rat.R
)

// RatValue returns num/den as a schedule-piece rational. den must be
// nonzero.
func RatValue(num, den int64) Rat { return rat.Frac(num, den) }

// RatFromBig converts a *big.Rat into a schedule-piece rational.
func RatFromBig(x *big.Rat) Rat { return rat.FromBig(x) }

// Variant constants.
const (
	Splittable    = core.Splittable
	Preemptive    = core.Preemptive
	NonPreemptive = core.NonPreemptive
)

// ErrInfeasible reports C > c·m (no schedule exists at any makespan).
var ErrInfeasible = core.ErrInfeasible

// ErrCanceled reports that Solve stopped because its context was canceled
// or its deadline expired before a schedule was produced. The returned
// error wraps both ErrCanceled and the underlying context.Canceled or
// context.DeadlineExceeded, so callers can branch deterministically:
//
//	errors.Is(err, ccsched.ErrCanceled)          // any cancellation
//	errors.Is(err, context.DeadlineExceeded)     // deadline specifically
//
// Services map it to a timeout/canceled status (e.g. HTTP 408 vs 499)
// without inspecting variant-specific internal error strings.
var ErrCanceled = errors.New("ccsched: solve canceled")

// ErrInternal reports that a panic fired somewhere in the solver and was
// recovered instead of killing the process: Solve converts panics — its
// own, and those of the speculative guess-probe worker goroutines — into an
// error wrapping this sentinel. The concrete error is an *InternalError
// carrying the panic value, the stack captured at the recovery site and
// the label of the component that panicked; extract it with errors.As.
// Services map ErrInternal to HTTP 500 and quarantine request keys that
// hit it repeatedly.
var ErrInternal = panicsafe.ErrInternal

// InternalError is the typed error behind ErrInternal: the recovered panic
// value, the goroutine stack captured where the panic was caught, and the
// component label (mirroring the solve-trace span names) that panicked.
type InternalError = panicsafe.Error

// ErrTooLarge reports an instance beyond the exact solvers' enforced size
// limits (TierExact non-preemptive: > 24 jobs; splittable: C > 6 or m > 6).
// The exact solvers return it — wrapped with the offending dimensions —
// instead of running for an unbounded time; test with errors.Is.
var ErrTooLarge = exact.ErrTooLarge

// ParseInstance reads the textual instance format.
func ParseInstance(s string) (*Instance, error) { return core.ParseInstance(s) }

// FormatInstance renders an instance in the textual format.
func FormatInstance(in *Instance) string { return core.FormatInstance(in) }

// CheckFeasible reports whether any schedule exists (C ≤ c·m).
func CheckFeasible(in *Instance) error { return core.CheckFeasible(in) }

// LowerBound returns a certified lower bound on the optimal makespan,
// combining the area, p_max and class-slot-counting arguments.
func LowerBound(in *Instance, v Variant) (*big.Rat, error) { return core.LowerBound(in, v) }

// Generate produces an instance from the named workload family
// ("uniform", "zipf", "fewlarge", "unitclasses", "thirds", "tightslots").
func Generate(family string, cfg GeneratorConfig) (*Instance, error) {
	f, err := generator.ByName(family)
	if err != nil {
		return nil, err
	}
	return f.Gen(cfg), nil
}

// GeneratorFamilies lists the built-in workload family names.
func GeneratorFamilies() []string {
	var out []string
	for _, f := range generator.Families() {
		out = append(out, f.Name)
	}
	return out
}

// Tier selects the algorithm family Solve runs.
type Tier int

// The algorithm tiers of Solve, mirroring the paper's structure.
const (
	// TierAuto runs the PTAS, which already embeds the constant-factor
	// algorithm both as the search's upper bound and as a best-of floor —
	// the result is never worse than the approximation tier's.
	TierAuto Tier = iota
	// TierApprox runs only the strongly polynomial constant-factor
	// algorithm (Theorems 4–6): 2·OPT splittable/preemptive, 7/3·OPT
	// non-preemptive.
	TierApprox
	// TierPTAS runs the approximation scheme (Theorems 10/11, 14, 19):
	// makespan at most (1+O(ε))·OPT via the configuration-ILP guess search.
	TierPTAS
	// TierExact runs the exact solvers, which enforce the documented size
	// limits (ErrTooLarge) and support only the non-preemptive and
	// splittable variants.
	TierExact
	// TierAnytime answers immediately with the constant-factor tier's
	// schedule (milliseconds, carrying the certified LowerBound and the
	// implied optimality gap), tagged with Result.Anytime describing the
	// ε-ladder that refines it. Solve returns only that first answer; the
	// background descent through the ladder is driven rung by rung via
	// Session.Ladder (each improvement replacing the session's current
	// result atomically), and the terminal rung is bit-identical to a cold
	// TierPTAS solve at Options.Epsilon.
	TierAnytime
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierApprox:
		return "approx"
	case TierPTAS:
		return "ptas"
	case TierExact:
		return "exact"
	case TierAnytime:
		return "anytime"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Options configures a Solve call. The zero value solves the splittable
// variant with TierAuto, ε = 0.5 and the shared default feasibility cache.
// A solve runs on the calling goroutine; to use more cores, run independent
// solves concurrently (they share the default cache). JSON that still
// carries the removed "parallelism" field decodes with the field ignored.
type Options struct {
	// Variant selects splittable (default), preemptive or non-preemptive
	// semantics.
	Variant Variant `json:"variant"`
	// Tier selects the algorithm family; see the Tier constants.
	Tier Tier `json:"tier"`
	// Epsilon is the PTAS accuracy target (makespan ≤ (1+O(ε))·OPT). Zero
	// selects 0.5. Ignored by TierApprox and TierExact.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Cache overrides the feasibility cache. Nil selects a process-wide
	// shared cache (see NewFeasibilityCache to isolate workloads); set
	// NoCache to disable caching entirely. Never serialized: a cache is a
	// process-local object, so JSON clients always get the server's cache
	// policy.
	Cache *FeasibilityCache `json:"-"`
	// NoCache disables guess-feasibility caching for this call.
	NoCache bool `json:"no_cache,omitempty"`
	// MaxNodes caps the exact N-fold engine's branch-and-bound nodes per
	// guess probe (PTAS tiers only).
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxConfigs guards the PTAS configuration enumeration per guess.
	MaxConfigs int `json:"max_configs,omitempty"`
	// HugeMThreshold is the machine count beyond which the splittable PTAS
	// switches to the Theorem 11 compact treatment.
	HugeMThreshold int64 `json:"huge_m_threshold,omitempty"`
	// ExplicitMachineLimit bounds the machine count for which the
	// splittable approximation materializes an explicit (per-machine)
	// schedule in addition to the compact one.
	ExplicitMachineLimit int64 `json:"explicit_machine_limit,omitempty"`
	// Trace attaches a span collector to this solve and returns the
	// recorded timeline in Result.Trace. Tracing is observational only: it
	// records wall times and existing counters, and a traced solve returns
	// bit-identical verdicts, guesses and schedules (pinned by the
	// trace-parity differential tests). Disabled, the instrumentation is a
	// single nil check per would-be span. Span cardinality per solve is
	// bounded; overflow aggregates into summary rows.
	Trace bool `json:"trace,omitempty"`
	// FallbackTier, when set to TierApprox, arms degraded fallback: if the
	// requested PTAS or exact tier is canceled by its context (deadline
	// expiry or cancellation) before producing a schedule, Solve runs the
	// strongly polynomial constant-factor tier — milliseconds, never
	// cancelable mid-solve — and returns its result with Result.Degraded
	// set instead of ErrCanceled. The degraded result still carries the
	// certified LowerBound, so callers always know the optimality gap they
	// accepted. Zero (TierAuto) disables fallback; values other than
	// TierApprox are rejected — only the constant-factor tier is fast
	// enough to be a fallback.
	FallbackTier Tier `json:"fallback_tier,omitempty"`
}

// defaultCache is the process-wide feasibility cache used when
// Options.Cache is nil: repeated Solve calls on identical workloads skip
// already-decided guess ILPs. It is bounded (see ptas.DefaultCacheEntries)
// and safe for concurrent use.
var defaultCache = NewFeasibilityCache()

// NewFeasibilityCache returns an empty, bounded, concurrency-safe cache of
// makespan-guess feasibility verdicts. Pass it via Options.Cache to isolate
// workloads from the process-wide default cache (or to share one cache
// across a controlled set of solves).
func NewFeasibilityCache() *FeasibilityCache { return ptas.NewCache() }

// Result is the unified Solve output. Exactly the schedule fields matching
// the requested variant are populated: Split and/or CompactSplit for
// Splittable (huge machine counts may carry only the compact form),
// Preemptive for Preemptive, NonPreemptive for NonPreemptive — except that
// TierExact's splittable solver proves only the optimal makespan.
//
// AppendJSON relies on the field order: the four schedules come right after
// LowerBound and right before Degraded.
type Result struct {
	// Variant echoes the solved variant.
	Variant Variant `json:"variant"`
	// Tier is the tier that ran (TierAuto resolves to TierPTAS).
	Tier Tier `json:"tier"`
	// Makespan is the achieved (or, for exact splittable, optimal)
	// makespan as an exact rational (serialized in "p/q" form).
	Makespan *big.Rat `json:"makespan"`
	// LowerBound is the certified lower bound on OPT for the variant; the
	// quotient Makespan/LowerBound bounds the approximation ratio achieved.
	LowerBound *big.Rat `json:"lower_bound"`
	// Split is the explicit splittable schedule, when materialized.
	Split *SplitSchedule `json:"split,omitempty"`
	// CompactSplit is the run-length splittable schedule (always present
	// for splittable approx/PTAS results, even for astronomical m).
	CompactSplit *CompactSplitSchedule `json:"compact_split,omitempty"`
	// Preemptive is the preemptive schedule with explicit start times.
	Preemptive *PreemptiveSchedule `json:"preemptive,omitempty"`
	// NonPreemptive is the one-machine-per-job assignment.
	NonPreemptive *NonPreemptiveSchedule `json:"non_preemptive,omitempty"`
	// Degraded reports that this result came from the FallbackTier (or a
	// serving layer's soft-deadline fallback) instead of the requested
	// tier: the makespan is the constant-factor tier's, within its proven
	// ratio of LowerBound, and Tier names the tier that actually ran.
	// Degraded results are served instead of an error, never silently — a
	// later solve of the same request at the full tier replaces them.
	Degraded bool `json:"degraded,omitempty"`
	// Report carries PTAS diagnostics (zero unless a PTAS tier ran).
	Report PTASReport `json:"report"`
	// Trace is the span timeline of this solve, present only when
	// Options.Trace was set (or the serving layer forced tracing on).
	Trace *SolveTrace `json:"trace,omitempty"`
	// Anytime describes this result's position on the TierAnytime ε-ladder
	// (nil for every other tier): which rung produced it, the live
	// optimality gap against LowerBound, and whether refinement is done.
	Anytime *AnytimeInfo `json:"anytime,omitempty"`
}

// AppendJSON appends r as encoding/json renders it, byte for byte, and
// then tail, growing b at most once. It skips encoding/json's second pass
// over the schedules: encoding/json re-scans every MarshalJSON output to
// validate and compact it, which for a schedule of thousands of pieces
// costs more than rendering it. Every field but the schedules goes through
// encoding/json (the schedules are omitempty, so they are left out), and
// the schedules are rendered straight into b where encoding/json puts
// them: after lower_bound, before degraded or report (report is never
// omitted). A caller splicing the result into a larger document passes
// the document's remainder as tail. The error reports a Result whose field
// order no longer has that splice point; TestScheduleJSONMatchesReflection
// checks that it never happens.
func (r *Result) AppendJSON(b []byte, tail ...byte) ([]byte, error) {
	rest := *r
	rest.Split, rest.CompactSplit, rest.Preemptive, rest.NonPreemptive = nil, nil, nil, nil
	js, err := json.Marshal(&rest)
	if err != nil {
		return b, err
	}
	cut := bytes.Index(js, []byte(`,"degraded":`))
	if cut < 0 {
		cut = bytes.Index(js, []byte(`,"report":`))
	}
	if cut < 0 {
		return b, errors.New("ccsched: Result.AppendJSON found no report field to put the schedules before")
	}
	type keyed struct {
		key string
		s   core.ScheduleJSON
	}
	var present [4]keyed
	schedules := present[:0]
	if s := r.Split; s != nil {
		schedules = append(schedules, keyed{`,"split":`, s})
	}
	if s := r.CompactSplit; s != nil {
		schedules = append(schedules, keyed{`,"compact_split":`, s})
	}
	if s := r.Preemptive; s != nil {
		schedules = append(schedules, keyed{`,"preemptive":`, s})
	}
	if s := r.NonPreemptive; s != nil {
		schedules = append(schedules, keyed{`,"non_preemptive":`, s})
	}
	size := len(js) + len(tail)
	for _, k := range schedules {
		size += len(k.key) + core.ScheduleJSONLen(k.s)
	}
	b = slices.Grow(b, size)
	b = append(b, js[:cut]...)
	for _, k := range schedules {
		b = append(b, k.key...)
		b = core.AppendScheduleJSON(b, k.s)
	}
	b = append(b, js[cut:]...)
	return append(b, tail...), nil
}

// Solve is the unified, context-aware entry point: it runs the tier and
// variant selected by opts and returns the schedule with its certified
// lower bound. The context cancels the solve promptly — the PTAS guess
// search and its N-fold ILP engines poll ctx at iteration boundaries (so
// cancellation takes effect within one augmentation iteration or
// branch-and-bound node even mid-ILP), and the exact tier polls it inside
// its exponential searches. TierApprox runs to completion: the
// constant-factor algorithms are strongly polynomial (milliseconds at
// n=1000), so ctx is only checked on entry. PTAS tiers memoize guess
// feasibility verdicts (Options.Cache); results are bit-identical to the
// uncached search.
func Solve(ctx context.Context, in *Instance, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch opts.Variant {
	case Splittable, Preemptive, NonPreemptive:
	default:
		return nil, fmt.Errorf("ccsched: unknown variant %v", opts.Variant)
	}
	switch opts.FallbackTier {
	case TierAuto, TierApprox:
	default:
		return nil, fmt.Errorf("ccsched: unsupported FallbackTier %v (only TierApprox can be a fallback)", opts.FallbackTier)
	}
	if err := ctx.Err(); err != nil {
		// A deadline already expired at entry is the fallback's best case:
		// the caller gets the degraded constant-factor answer immediately
		// instead of a guaranteed ErrCanceled.
		if opts.FallbackTier == TierApprox && opts.Tier != TierApprox {
			return solveFallback(in, opts)
		}
		return nil, wrapCanceled(err)
	}
	res, err := runTiers(ctx, in, opts)
	if err != nil {
		err = wrapCanceled(err)
		// Degraded fallback: the requested tier died at its deadline, but
		// the caller armed FallbackTier — answer with the milliseconds
		// constant-factor tier and its certified lower bound instead of
		// ErrCanceled. Only cancellation triggers it: infeasibility, size
		// limits and internal errors would fail the fallback identically
		// (or mask a bug), so they pass through.
		if errors.Is(err, ErrCanceled) && opts.FallbackTier == TierApprox && opts.Tier != TierApprox {
			return solveFallback(in, opts)
		}
		return nil, err
	}
	return res, nil
}

// runTiers dispatches the selected tier with tracing attached and the
// process-wide panic boundary in place: a panic anywhere below — this
// goroutine or an engine worker whose captured panic was re-raised here —
// returns as an error wrapping ErrInternal instead of unwinding the
// caller.
func runTiers(ctx context.Context, in *Instance, opts Options) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, panicsafe.Capture(v, "solve")
		}
	}()
	var col *trace.Collector
	var root trace.Span
	if opts.Trace {
		col = trace.NewCollector(0)
		root = col.Root("solve")
	}
	// The class index and the certified bound are built once and handed
	// to the tier.
	ix := core.NewClassIndex(in, opts.Variant)
	lb, err := ix.LowerBound()
	if err != nil {
		return nil, err
	}
	res = &Result{Variant: opts.Variant, Tier: opts.Tier, LowerBound: lb.Rat()}
	switch opts.Tier {
	case TierApprox:
		err = solveApprox(ix, opts, lb, res)
	case TierAuto, TierPTAS:
		res.Tier = TierPTAS
		err = solvePTAS(ctx, ix, opts, lb, res, root)
	case TierExact:
		err = solveExact(ctx, in, opts, res)
	case TierAnytime:
		// The anytime first answer IS the constant-factor tier, tagged with
		// its ladder position; refinement is the Ladder's job, not Solve's.
		err = solveAnytimeFirst(ix, opts, lb, res)
	default:
		return nil, fmt.Errorf("ccsched: unknown tier %v", opts.Tier)
	}
	if err != nil {
		return nil, err
	}
	if col != nil {
		root.End(
			trace.A("n", int64(in.N())),
			trace.A("m", int64(in.M)),
			trace.A("slots", int64(in.Slots)),
			trace.A("variant", int64(opts.Variant)),
			trace.A("tier", int64(res.Tier)),
		)
		res.Trace = col.Export()
	}
	return res, nil
}

// solveFallback runs the degraded constant-factor answer after the
// requested tier was canceled: same variant, TierApprox, Degraded set.
// The fallback ignores the (already dead) context — the constant-factor
// algorithms are strongly polynomial and finish in milliseconds. It is
// untraced: the trace of the canceled full-tier attempt died with it, and
// a degraded answer should cost nothing beyond the approx solve itself.
func solveFallback(in *Instance, opts Options) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, panicsafe.Capture(v, "solve_fallback")
		}
	}()
	ix := core.NewClassIndex(in, opts.Variant)
	lb, err := ix.LowerBound()
	if err != nil {
		return nil, err
	}
	res = &Result{Variant: opts.Variant, Tier: TierApprox, LowerBound: lb.Rat(), Degraded: true}
	if err := solveApprox(ix, opts, lb, res); err != nil {
		return nil, err
	}
	return res, nil
}

// wrapCanceled maps cancellation surfaced by any tier's internals onto the
// ErrCanceled sentinel, preserving the underlying context error for
// errors.Is. Non-cancellation errors pass through untouched.
func wrapCanceled(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// solveApprox dispatches the constant-factor tier; ix is the instance's
// class index and lb its certified bound. The makespan is the plan's: it
// equals the realized schedule's.
func solveApprox(ix *core.ClassIndex, opts Options, lb rat.R, res *Result) error {
	switch opts.Variant {
	case Splittable:
		p, err := approx.PlanSplittableIndexed(ix, approx.Options{ExplicitMachineLimit: opts.ExplicitMachineLimit}, lb)
		if err != nil {
			return err
		}
		r := p.Realize()
		res.Split, res.CompactSplit, res.Makespan = r.Explicit, r.Compact, p.Makespan().Rat()
	case Preemptive:
		p, err := approx.PlanPreemptiveIndexed(ix, lb)
		if err != nil {
			return err
		}
		res.Preemptive, res.Makespan = p.Realize().Schedule, p.Makespan().Rat()
	case NonPreemptive:
		p, err := approx.PlanNonPreemptiveIndexed(ix, lb)
		if err != nil {
			return err
		}
		res.NonPreemptive, res.Makespan = p.Realize().Schedule, new(big.Rat).SetInt64(p.Makespan())
	}
	return nil
}

// solvePTAS dispatches the approximation-scheme tier with the feasibility
// cache resolved from opts. ix is the instance's class index, lb its
// certified bound and sp the enclosing trace span (disabled when the solve
// is untraced).
func solvePTAS(ctx context.Context, ix *core.ClassIndex, opts Options, lb rat.R, res *Result, sp trace.Span) error {
	popts := ptas.Options{
		Epsilon:        opts.Epsilon,
		MaxNodes:       opts.MaxNodes,
		MaxConfigs:     opts.MaxConfigs,
		HugeMThreshold: opts.HugeMThreshold,
		Trace:          sp,
	}
	if popts.Epsilon == 0 {
		popts.Epsilon = 0.5
	}
	if !opts.NoCache {
		popts.Cache = opts.Cache
		if popts.Cache == nil {
			popts.Cache = defaultCache
		}
	}
	switch opts.Variant {
	case Splittable:
		r, err := ptas.SolveSplittableLB(ctx, ix, popts, lb)
		if err != nil {
			return err
		}
		res.Split, res.CompactSplit, res.Makespan, res.Report = r.Schedule, r.Compact, r.Makespan(), r.Report
	case Preemptive:
		r, err := ptas.SolvePreemptiveLB(ctx, ix, popts, lb)
		if err != nil {
			return err
		}
		res.Preemptive, res.Makespan, res.Report = r.Schedule, r.Makespan(), r.Report
	case NonPreemptive:
		r, err := ptas.SolveNonPreemptiveLB(ctx, ix, popts, lb)
		if err != nil {
			return err
		}
		res.NonPreemptive, res.Makespan, res.Report = r.Schedule, r.Makespan(), r.Report
	}
	return nil
}

// solveExact dispatches the exact tier; size limits are enforced via
// ErrTooLarge and the preemptive variant has no exact solver. Both solvers
// poll ctx inside their exponential searches.
func solveExact(ctx context.Context, in *Instance, opts Options, res *Result) error {
	switch opts.Variant {
	case Splittable:
		opt, err := exact.SplittableCtx(ctx, in)
		if err != nil {
			return err
		}
		res.Makespan = opt
	case NonPreemptive:
		sched, opt, err := exact.NonPreemptiveCtx(ctx, in)
		if err != nil {
			return err
		}
		res.NonPreemptive = sched
		res.Makespan = new(big.Rat).SetInt64(opt)
	case Preemptive:
		return fmt.Errorf("ccsched: no exact solver for the preemptive variant; use TierPTAS with a small Epsilon")
	}
	return nil
}
