package ccsched

// Differential tests for the anytime tier: the ladder's final rung must be
// bit-identical to a cold TierPTAS solve at the terminal ε (warm reuse
// across rungs is verdict-preserving), the published gaps must never
// increase, and the first answer must be the tagged constant-factor rung.

import (
	"context"
	"fmt"
	"testing"
)

// anytimeParityCase runs the full ladder on in and checks the update
// stream's invariants plus final parity against a cold TierPTAS solve.
func anytimeParityCase(t *testing.T, in *Instance, opts Options) {
	t.Helper()
	ctx := context.Background()
	var updates []*Result
	final, err := SolveAnytime(ctx, in, opts, func(r *Result) {
		updates = append(updates, r)
	})
	if err != nil {
		t.Fatalf("SolveAnytime: %v", err)
	}
	if len(updates) < 2 {
		t.Fatalf("got %d updates, want at least the first answer and the terminal rung", len(updates))
	}
	first := updates[0]
	if first.Anytime == nil || first.Anytime.Rung != 0 || first.Tier != TierAnytime {
		t.Fatalf("first update is not the tagged rung-0 answer: %+v", first.Anytime)
	}
	for i, u := range updates {
		if u.Anytime == nil {
			t.Fatalf("update %d missing Anytime tag", i)
		}
		if i > 0 {
			prev := updates[i-1]
			if u.Anytime.Rung <= prev.Anytime.Rung {
				t.Fatalf("update %d rung %d did not advance past %d", i, u.Anytime.Rung, prev.Anytime.Rung)
			}
			if u.Makespan.Cmp(prev.Makespan) > 0 {
				t.Fatalf("update %d makespan %s worse than previous %s (gap must be monotone non-increasing)",
					i, u.Makespan.RatString(), prev.Makespan.RatString())
			}
		}
		if u.LowerBound.Cmp(first.LowerBound) != 0 {
			t.Fatalf("update %d lower bound %s drifted from %s", i, u.LowerBound.RatString(), first.LowerBound.RatString())
		}
	}
	last := updates[len(updates)-1]
	if last != final || !last.Anytime.Final {
		t.Fatalf("last update (rung %d, final=%v) is not the returned final result", last.Anytime.Rung, last.Anytime.Final)
	}
	coldOpts := opts
	coldOpts.Tier = TierPTAS
	coldOpts.Cache = NewFeasibilityCache() // honestly cold: no shared verdicts
	want, err := Solve(ctx, in, coldOpts)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if final.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("final anytime makespan %s != cold TierPTAS %s (report %+v vs %+v)",
			final.Makespan.RatString(), want.Makespan.RatString(), final.Report, want.Report)
	}
	if final.LowerBound.Cmp(want.LowerBound) != 0 {
		t.Fatalf("final anytime lower bound %s != cold %s", final.LowerBound.RatString(), want.LowerBound.RatString())
	}
}

// TestAnytimeFinalParityAllFamilies drives the anytime ladder on all six
// generator families under all three variants: the splittable cases descend
// a three-rung ladder (1 → ½), the heavier preemptive and non-preemptive
// constructions a two-rung ladder at terminal ε = 1.
func TestAnytimeFinalParityAllFamilies(t *testing.T) {
	cases := []struct {
		variant Variant
		cfg     GeneratorConfig
		opts    Options
	}{
		{Splittable,
			GeneratorConfig{N: 40, Classes: 6, Machines: 5, Slots: 2, PMax: 200},
			Options{Variant: Splittable, Epsilon: 0.5}},
		{Preemptive,
			GeneratorConfig{N: 8, Classes: 2, Machines: 2, Slots: 1, PMax: 30},
			Options{Variant: Preemptive, Epsilon: 1, MaxNodes: 120}},
		{NonPreemptive,
			GeneratorConfig{N: 10, Classes: 3, Machines: 3, Slots: 2, PMax: 40},
			Options{Variant: NonPreemptive, Epsilon: 1}},
	}
	for _, fam := range GeneratorFamilies() {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", fam, tc.variant), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed = 7
				in, err := Generate(fam, cfg)
				if err != nil {
					t.Fatal(err)
				}
				anytimeParityCase(t, in, tc.opts)
			})
		}
	}
}

// TestAnytimeFinalIsBestRung scans seeds for ladders whose terminal rung,
// solved on its own, is worse than an earlier rung (the budgeted engines
// make the PTAS at a finer ε occasionally lose to a coarser one), and
// checks that the final event republishes the best answer instead: its
// makespan is the minimum over every rung, it is tagged as the terminal
// rung, and the published gaps never grow.
func TestAnytimeFinalIsBestRung(t *testing.T) {
	ctx := context.Background()
	opts := Options{Variant: Splittable, Epsilon: 0.5}
	rungs := anytimeLadder(opts.Epsilon)
	shown := 0
	for seed := int64(1); seed <= 8; seed++ {
		in, err := Generate("uniform", GeneratorConfig{N: 10, Classes: 3, Machines: 3, Slots: 2, PMax: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Every rung on its own: the constant-factor answer, then a cold
		// PTAS solve per ladder ε.
		first, err := Solve(ctx, in, Options{Variant: opts.Variant, Tier: TierApprox})
		if err != nil {
			t.Fatal(err)
		}
		best, terminal := first.Makespan, first.Makespan
		for _, eps := range rungs {
			r, err := Solve(ctx, in, Options{Variant: opts.Variant, Tier: TierPTAS, Epsilon: eps, Cache: NewFeasibilityCache()})
			if err != nil {
				t.Fatal(err)
			}
			if terminal = r.Makespan; terminal.Cmp(best) < 0 {
				best = terminal
			}
		}
		if terminal.Cmp(best) == 0 {
			continue
		}
		shown++
		t.Logf("seed %d: terminal rung alone %s, best rung %s", seed, terminal.RatString(), best.RatString())
		var updates []*Result
		final, err := SolveAnytime(ctx, in, opts, func(r *Result) { updates = append(updates, r) })
		if err != nil {
			t.Fatal(err)
		}
		if final.Makespan.Cmp(best) != 0 || !final.Anytime.Final || final.Anytime.Rung != len(rungs) {
			t.Errorf("seed %d: final event (rung %d, final %v) makespan %s; want the best rung's %s (terminal alone %s)",
				seed, final.Anytime.Rung, final.Anytime.Final, final.Makespan.RatString(), best.RatString(), terminal.RatString())
		}
		if final.Anytime.Gap != anytimeGap(final.Makespan, final.LowerBound) {
			t.Errorf("seed %d: final gap %v does not match its makespan", seed, final.Anytime.Gap)
		}
		for i := 1; i < len(updates); i++ {
			if updates[i].Anytime.Gap > updates[i-1].Anytime.Gap {
				t.Errorf("seed %d: gap grew from %v to %v at update %d", seed, updates[i-1].Anytime.Gap, updates[i].Anytime.Gap, i)
			}
		}
	}
	if shown == 0 {
		t.Fatal("no seed in the scan has a terminal rung worse than an earlier one; widen the scan")
	}
}

// TestAnytimeLadderRestartOnDelta pins the delta contract: a delta landing
// between rungs restarts the ladder from a fresh rung-0 answer, and the
// rerun terminal rung matches a cold solve of the mutated instance.
func TestAnytimeLadderRestartOnDelta(t *testing.T) {
	in, err := Generate("uniform", GeneratorConfig{N: 24, Classes: 4, Machines: 4, Slots: 2, PMax: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Variant: Splittable, Tier: TierAnytime, Epsilon: 1}
	sess, err := NewSession(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	l := NewLadder(sess)
	res, done, err := l.Step(ctx)
	if err != nil || done || res == nil || res.Anytime.Rung != 0 {
		t.Fatalf("first step: res=%v done=%v err=%v", res, done, err)
	}
	// Delta between rungs: the ladder must restart from rung 0.
	if _, err := sess.AddJobs([]int64{55}, []int{1}); err != nil {
		t.Fatal(err)
	}
	res, done, err = l.Step(ctx)
	if err != nil || done || res == nil || res.Anytime.Rung != 0 {
		t.Fatalf("post-delta step did not restart at rung 0: res=%v done=%v err=%v", res, done, err)
	}
	var final *Result
	for !done {
		var r *Result
		r, done, err = l.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			final = r
		}
	}
	if final == nil || !final.Anytime.Final {
		t.Fatal("ladder finished without a final result")
	}
	coldOpts := opts
	coldOpts.Tier = TierPTAS
	coldOpts.Cache = NewFeasibilityCache()
	want, err := Solve(ctx, sess.Instance(), coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if final.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("post-delta final %s != cold %s", final.Makespan.RatString(), want.Makespan.RatString())
	}
	// The session's current result is the ladder's final answer.
	cur, err := sess.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cur != final {
		t.Fatal("session's current result is not the ladder's final publish")
	}
}
