package ptas

import (
	"context"
	"crypto/sha256"
	"fmt"

	"ccsched/internal/core"
	"ccsched/internal/nfold"
	"ccsched/internal/rat"
	"ccsched/internal/trace"
)

// scheme describes one PTAS variant to runScheme. G is its per-guess state,
// S the schedule it returns.
type scheme[G guess[S], S any] struct {
	// tag separates the variant's cache keys.
	tag byte
	// variant selects the certified lower bound.
	variant core.Variant
	// template builds the guess-independent state of one search.
	template func(ctx context.Context, ix *core.ClassIndex, g int64, opts Options) (guessTemplate[G], error)
	// approx plans the constant-factor algorithm, given the instance's
	// certified bound: its makespan sets the top of the guess grid and is
	// the best-of floor, and its schedule is built only when the driver
	// returns it (the fallback and approx-min exits).
	approx   func(ix *core.ClassIndex, bound rat.R) (approxPlan[S], error)
	makespan func(in *core.Instance, s S) rat.R
	// shortcut, when set, returns the optimal one-job-per-machine schedule
	// for m ≥ n. The splittable scheme has none: its optimum can lie below
	// p_max.
	shortcut func(in *core.Instance) S
	// descale, when set, marks a rational optimum: the instance is scaled
	// so the integral guess grid is (1+δ)-fine relative to OPT (scale.go),
	// and descale maps the schedule back.
	descale func(s S, scale int64)
}

// guessTemplate is a scheme's guess-independent state.
type guessTemplate[G any] interface {
	// instantiate groups and rounds the instance at guess t. It returns
	// errGuessTooSmall to reject t without building an N-fold, and the
	// context's error when the solve is canceled.
	instantiate(ctx context.Context, t int64) (G, error)
	// engines is the nfold.Template every probe of the search shares.
	engines() *nfold.Template
}

// guess is one instantiated makespan guess.
type guess[S any] interface {
	// digest hashes everything buildNFold reads (see cacheKey).
	digest() [sha256.Size]byte
	// buildNFold returns the context's error when the solve is canceled
	// while it builds.
	buildNFold(ctx context.Context) (*nfold.Problem, error)
	// constructSchedule realizes an N-fold solution as a schedule.
	constructSchedule(x [][]int64) (S, error)
}

// approxPlan is the constant-factor algorithm before its schedule is
// built.
type approxPlan[S any] struct {
	makespan rat.R
	realize  func() S
}

// errGuessTooSmall rejects a guess below which a single job cannot fit.
var errGuessTooSmall = fmt.Errorf("ptas: guess below the largest job")

// accepted is the outcome of an accepted probe.
type accepted[S any] struct {
	sched  S
	report Report
}

// runScheme is the dual-approximation driver of every scheme: it brackets
// the makespan between the certified lower bound and the constant-factor
// plan's makespan, searches the (1+δ) guess grid with one configuration
// N-fold per guess, and returns the better of the scheme's schedule and the
// constant-factor one — or the constant-factor one alone when no guess is
// accepted within budget. The constant-factor schedule is built only at
// those two exits. It also returns the returned schedule's makespan.
// Cancelling ctx stops in-flight N-fold solves at their next iteration
// boundary and returns ctx.Err(); an engine panic unwinds through the
// driver, never masked by the fallback (Solve turns it into ErrInternal).
// ix is the instance's class index for sc.variant and bound its certified
// bound ix.LowerBound(), both built once per solve.
func runScheme[G guess[S], S any](ctx context.Context, ix *core.ClassIndex, opts Options, sc scheme[G, S], bound rat.R) (S, rat.R, Report, error) {
	var none S
	in := ix.In
	g, err := opts.delta()
	if err != nil {
		return none, rat.R{}, Report{}, err
	}
	if err := in.Validate(); err != nil {
		return none, rat.R{}, Report{}, err
	}
	if err := ix.CheckFeasible(); err != nil {
		return none, rat.R{}, Report{}, err
	}
	if sc.shortcut != nil && in.M >= int64(in.N()) {
		return sc.shortcut(in), rat.FromInt(ix.PMax), Report{InvDelta: g, Guess: ix.PMax}, nil
	}
	scale := int64(1)
	if sc.descale != nil {
		if scale = scaleFactor(bound.Rat(), ix.PMax, 4*g*g); scale > 1 {
			// The bound is homogeneous in the processing times (see
			// TestScaledBoundIsExact), so the scaled instance's bound is
			// the scaled bound.
			ix = ix.Scaled(scale)
			in = ix.In
			bound = bound.MulInt(scale)
		}
	}
	lo := max(1, bound.Ceil())
	apx, err := sc.approx(ix, bound)
	if err != nil {
		return none, rat.R{}, Report{}, err
	}
	hi := max(apx.makespan.Ceil(), lo)
	grid := guessGrid(lo, hi, g)
	var stats probeStats
	var best accepted[S]
	var guess int64
	tried := 0
	tsp := opts.Trace.Child("template_build")
	tm, err := sc.template(ctx, ix, g, opts)
	tsp.End()
	if err == nil {
		ssp := opts.Trace.Child("guess_search")
		opts.Trace = ssp // probes hang their spans off the search span
		probe := func(t int64) (accepted[S], bool, error) {
			// The probe span times the whole probe: instantiate, digest,
			// the cache lookup or engine, and the schedule.
			sp := opts.Trace.Child("probe")
			fail := func(err error) (accepted[S], bool, error) {
				sp.End(trace.A("t", t), trace.A("err", 1))
				return accepted[S]{}, false, err
			}
			gc, err := tm.instantiate(ctx, t)
			if err == errGuessTooSmall {
				sp.End(trace.A("t", t), trace.A("feasible", 0))
				return accepted[S]{}, false, nil
			}
			if err != nil {
				return fail(err)
			}
			// A canceled solve stops at each unpolled step (digest, lookup,
			// schedule) instead of finishing the probe.
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			key := probeCacheKey(sc.tag, gc.digest(), g, opts)
			entry, attrs, err := solveGuessCached(ctx, opts, key, t, &stats, tm.engines(), gc.buildNFold, sp)
			if err != nil {
				return fail(err)
			}
			if !entry.feasible {
				sp.End(attrs...)
				return accepted[S]{}, false, nil
			}
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			sched, err := gc.constructSchedule(entry.x)
			if err != nil {
				return fail(err)
			}
			sp.End(attrs...)
			return accepted[S]{sched, Report{
				InvDelta: g, Guess: t, NFold: entry.params, Engine: entry.engine,
				TheoreticalCostLog2: entry.params.CostLog2(),
			}}, true, nil
		}
		best, guess, tried, err = searchGuesses(grid, probe)
		ssp.End(trace.A("guesses", int64(tried)), trace.A("guess", guess), trace.A("grid", int64(len(grid))))
	}
	var makespan rat.R
	if err != nil {
		if ctx.Err() != nil {
			return none, rat.R{}, Report{}, ctx.Err()
		}
		// Degrade gracefully: the constant-factor schedule is always
		// available when every guess is rejected within budget or the
		// configuration enumeration exceeds its limit.
		best = accepted[S]{apx.realize(), fallbackReport(g, hi, tried, &stats)}
		makespan = apx.makespan
	} else {
		best.report.Guess = guess
		best.report.Guesses = tried
		stats.report(&best.report)
		// The accepted guess's schedule may be worse than the
		// constant-factor one (the scheme's constants are large for coarse
		// δ); both are feasible, so return the better one.
		makespan = sc.makespan(in, best.sched)
		if apx.makespan.Cmp(makespan) < 0 {
			best.sched, best.report.Engine, makespan = apx.realize(), "approx-min", apx.makespan
		}
	}
	if scale > 1 {
		sc.descale(best.sched, scale)
		makespan = makespan.DivInt(scale)
	}
	return best.sched, makespan, best.report, nil
}
