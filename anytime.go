package ccsched

import (
	"context"
	"math/big"
	"sync"

	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// The anytime tier: an instant constant-factor answer followed by a
// descending ε-ladder of PTAS refinements. Solve (and Session.Solve) with
// TierAnytime return only the ladder's first rung — the strongly
// polynomial 2-approx (7/3 non-preemptive) with its certified LowerBound,
// so the caller holds a bounded answer in milliseconds. Refinement is
// explicit: a Ladder steps through PTAS rungs at ε = 1, ½, ¼, … down to
// Options.Epsilon, each a plain Solve over the session's feasibility cache,
// and installs each improvement as the session's current result
// atomically. The terminal rung runs the PTAS at exactly Options.Epsilon,
// so its makespan is bit-identical to a cold TierPTAS solve of the same
// instance (cache hits are verdict-preserving; the anytime parity
// differential pins this on every generator family).
// The final answer is the best of all rungs: a terminal rung that is worse
// than an earlier one republishes that earlier result, tagged final.

// AnytimeInfo tags a TierAnytime result with its position on the ε-ladder.
type AnytimeInfo struct {
	// Rung is the ladder position that produced this result: 0 is the
	// constant-factor first answer, Rungs-1 the terminal PTAS rung.
	Rung int `json:"rung"`
	// Rungs is the total ladder length, first answer included.
	Rungs int `json:"rungs"`
	// Epsilon is the PTAS accuracy of this rung (0 on rung 0 — the
	// constant-factor tier has a fixed ratio, not an ε).
	Epsilon float64 `json:"epsilon"`
	// Gap is the live optimality gap Makespan/LowerBound − 1, computed
	// from the exact rationals and rounded for display. The certified
	// bound: OPT lies within [Makespan/(1+Gap), Makespan].
	Gap float64 `json:"gap"`
	// Final marks the terminal rung: no further refinement will follow
	// for this instance generation. When the terminal rung's own schedule
	// is worse than an earlier rung's, the final event carries that earlier
	// schedule (and its Report) under the terminal rung's tag.
	Final bool `json:"final"`
}

// anytimeLadder returns the descending PTAS rungs for a terminal accuracy:
// ε halves from 1 until it reaches terminal (0 selects the PTAS default
// 0.5), with terminal itself always the last rung. A terminal ≥ 1 yields
// the single rung [terminal].
func anytimeLadder(terminal float64) []float64 {
	if terminal <= 0 {
		terminal = 0.5
	}
	if terminal >= 1 {
		return []float64{terminal}
	}
	var rungs []float64
	for e := 1.0; e > terminal; e /= 2 {
		rungs = append(rungs, e)
		if e/2 <= terminal {
			break
		}
	}
	return append(rungs, terminal)
}

// anytimeGap computes Makespan/LowerBound − 1 exactly, then rounds to
// float64 for the wire. A zero lower bound (empty instance) reports a zero
// gap — there is nothing left to refine.
func anytimeGap(makespan, lb *big.Rat) float64 {
	if makespan == nil || lb == nil || lb.Sign() <= 0 {
		return 0
	}
	gap := new(big.Rat).Quo(makespan, lb)
	gap.Sub(gap, big.NewRat(1, 1))
	f, _ := gap.Float64()
	return f
}

// solveAnytimeFirst produces the TierAnytime first answer: the
// constant-factor schedule tagged with rung 0 of the ladder implied by
// opts.Epsilon. runTiers dispatches here; refinement belongs to Ladder.
func solveAnytimeFirst(ix *core.ClassIndex, opts Options, lb rat.R, res *Result) error {
	if err := solveApprox(ix, opts, lb, res); err != nil {
		return err
	}
	res.Anytime = &AnytimeInfo{
		Rung:  0,
		Rungs: len(anytimeLadder(opts.Epsilon)) + 1,
		Gap:   anytimeGap(res.Makespan, res.LowerBound),
	}
	return nil
}

// A Ladder drives TierAnytime refinement over a session, one rung per
// Step. It is a position, not a goroutine: callers (the serving layer's
// low-priority refinement pool, or SolveAnytime's loop) decide when each
// rung runs, so refinement can be paused, budgeted, or canceled between
// rungs. The ladder binds to the session's instance generation — a delta
// landing mid-rung discards that rung's result and the next Step restarts
// from the fresh constant-factor first answer.
//
// A Ladder is safe for concurrent use, but steps serialize internally on
// the ladder position.
type Ladder struct {
	s *Session

	mu    sync.Mutex
	rungs []float64
	// next is the rung the next Step runs: 0 is the constant-factor first
	// answer, i ≥ 1 the PTAS at rungs[i-1]. gen is the session generation
	// the position belongs to (0 = unbound). best is the best result
	// published for this generation, the publish-only-improvements filter.
	next int
	gen  uint64
	best *Result
}

// NewLadder returns a ladder over the session's ε-ladder (terminal rung at
// the session's Options.Epsilon). The session keeps working normally —
// deltas apply, Solve answers with the current best — while the caller
// steps the ladder at its own pace.
func NewLadder(s *Session) *Ladder {
	return &Ladder{s: s, rungs: anytimeLadder(s.Options().Epsilon)}
}

// Rungs returns the total ladder length including the first answer.
func (l *Ladder) Rungs() int { return len(l.rungs) + 1 }

// Step runs one rung against the session's current instance and publishes
// the result into the session if it improves the published best. The
// terminal rung always publishes: its own result (bit-identical to a cold
// TierPTAS solve at the terminal ε) unless that is worse than the best so
// far, which it then republishes as a copy tagged final. It returns the
// published result (nil when the rung brought no improvement or a
// concurrent delta invalidated it) and whether the ladder has reached the
// terminal rung for the current instance generation. After a delta, the
// next Step restarts the ladder from rung 0 automatically. Cancellation via
// ctx aborts only the in-flight rung; the ladder position is unchanged and
// Step may be retried.
func (l *Ladder) Step(ctx context.Context) (*Result, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	l.s.mu.Lock()
	if l.gen != l.s.gen {
		l.gen, l.next, l.best = l.s.gen, 0, nil
	}
	gen := l.gen
	rung := l.next
	in := l.s.in.Clone()
	opts := l.s.opts
	// Rung 0 may already be installed: Session.Solve on a TierAnytime
	// session computes exactly the first answer. Reuse it instead of
	// re-running the approx tier.
	var cached *Result
	if rung == 0 && l.s.last != nil && l.s.lastGen == gen &&
		l.s.last.Anytime != nil && l.s.last.Anytime.Rung == 0 {
		cached = l.s.last
	}
	l.s.mu.Unlock()

	if rung > len(l.rungs) {
		return nil, true, nil
	}

	// The solve runs on a clone outside the session lock so deltas stay
	// responsive mid-rung.
	var res *Result
	if cached != nil {
		res = cached
	} else {
		opts.Trace = false
		opts.FallbackTier = TierAuto
		opts.Tier = TierAnytime
		if rung > 0 {
			opts.Tier = TierPTAS
			opts.Epsilon = l.rungs[rung-1]
		}
		var err error
		if res, err = Solve(ctx, in, opts); err != nil {
			return nil, false, err
		}
	}

	final := rung == len(l.rungs)
	if cached == nil {
		// Shared results (the reused rung-0 install) are immutable and
		// already carry their tag; only freshly solved rungs get tagged.
		eps := 0.0
		if rung > 0 {
			eps = l.rungs[rung-1]
		}
		res.Tier = TierAnytime
		res.Anytime = &AnytimeInfo{
			Rung:    rung,
			Rungs:   len(l.rungs) + 1,
			Epsilon: eps,
			Gap:     anytimeGap(res.Makespan, res.LowerBound),
			Final:   final,
		}
	}

	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	if cached == nil {
		l.s.resolves++
	}
	if l.s.gen != gen {
		// A delta landed mid-rung: the result belongs to a dead
		// generation. Drop it; the next Step rebinds and restarts.
		return nil, false, nil
	}
	l.next++
	switch {
	case l.best == nil || res.Makespan.Cmp(l.best.Makespan) < 0:
		l.best = res
	case final && res.Makespan.Cmp(l.best.Makespan) > 0:
		// Results are shared and immutable: re-tag a copy.
		best, tag := *l.best, *res.Anytime
		tag.Gap = l.best.Anytime.Gap
		best.Anytime = &tag
		res = &best
	case !final:
		return nil, false, nil
	}
	l.s.last, l.s.lastGen = res, gen
	return res, final, nil
}

// SolveAnytime runs the whole TierAnytime ladder synchronously: the
// constant-factor first answer, then every PTAS rung down to
// opts.Epsilon, invoking onUpdate (when non-nil) with each published
// improvement in order — the last call carries the final result, which
// SolveAnytime also returns. It is the library-level equivalent of
// watching a server-side refinement to completion, and the harness the
// anytime parity tests and first-answer benchmarks drive.
func SolveAnytime(ctx context.Context, in *Instance, opts Options, onUpdate func(*Result)) (*Result, error) {
	opts.Tier = TierAnytime
	sess, err := NewSession(in, opts)
	if err != nil {
		return nil, err
	}
	l := NewLadder(sess)
	var last *Result
	for {
		res, done, err := l.Step(ctx)
		if err != nil {
			return nil, err
		}
		if res != nil {
			last = res
			if onUpdate != nil {
				onUpdate(res)
			}
		}
		if done {
			return last, nil
		}
	}
}
