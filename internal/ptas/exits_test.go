package ptas

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/faultinject"
	"ccsched/internal/generator"
	"ccsched/internal/panicsafe"
)

// exitOutcome is the variant-independent view of one scheme result.
type exitOutcome struct {
	makespan *big.Rat
	report   Report
	// valid is the schedule's Validate error.
	valid error
	// explicit reports whether a splittable result carries an explicit
	// schedule (always true for the other variants).
	explicit bool
}

// exitVariant runs one scheme and its constant-factor algorithm.
type exitVariant struct {
	solve  func(ctx context.Context, in *core.Instance, o Options) (exitOutcome, error)
	approx func(in *core.Instance) (*big.Rat, error)
}

var (
	exitSplit = exitVariant{
		solve: func(ctx context.Context, in *core.Instance, o Options) (exitOutcome, error) {
			r, err := SolveSplittable(ctx, in, o)
			if err != nil {
				return exitOutcome{}, err
			}
			valid := r.Compact.Validate(in)
			if valid == nil && r.Schedule != nil {
				valid = r.Schedule.Validate(in)
			}
			return exitOutcome{r.Makespan(), r.Report, valid, r.Schedule != nil}, nil
		},
		approx: func(in *core.Instance) (*big.Rat, error) {
			r, err := approx.SolveSplittable(in)
			if err != nil {
				return nil, err
			}
			return r.Makespan(), nil
		},
	}
	exitPreemptive = exitVariant{
		solve: func(ctx context.Context, in *core.Instance, o Options) (exitOutcome, error) {
			r, err := SolvePreemptive(ctx, in, o)
			if err != nil {
				return exitOutcome{}, err
			}
			return exitOutcome{r.Makespan(), r.Report, r.Schedule.Validate(in), true}, nil
		},
		approx: func(in *core.Instance) (*big.Rat, error) {
			r, err := approx.SolvePreemptive(in)
			if err != nil {
				return nil, err
			}
			return r.Makespan(), nil
		},
	}
	exitNonPreemptive = exitVariant{
		solve: func(ctx context.Context, in *core.Instance, o Options) (exitOutcome, error) {
			r, err := SolveNonPreemptive(ctx, in, o)
			if err != nil {
				return exitOutcome{}, err
			}
			return exitOutcome{core.RatInt(r.Schedule.Makespan(in)), r.Report, r.Schedule.Validate(in), true}, nil
		},
		approx: func(in *core.Instance) (*big.Rat, error) {
			r, err := approx.SolveNonPreemptive(in)
			if err != nil {
				return nil, err
			}
			return core.RatInt(r.Makespan(in)), nil
		},
	}
)

// TestSchemeExits pins the exits every scheme takes through the shared
// driver: the approx fallback when no guess can be probed, cancellation,
// panic propagation, the m ≥ n shortcut, and the reported search on
// success.
func TestSchemeExits(t *testing.T) {
	defer faultinject.Reset()
	gen := func(n, classes int, m int64) *core.Instance {
		return generator.Uniform(generator.Config{N: n, Classes: classes, Machines: m, Slots: 2, PMax: 100, Seed: 7})
	}
	// fewJobs has m ≥ n: one job per machine is optimal for the
	// preemptive and non-preemptive variants, but not necessarily for the
	// splittable one, whose optimum can lie below p_max.
	fewJobs := &core.Instance{P: []int64{50, 30, 80}, Class: []int{0, 1, 0}, M: 3, Slots: 1}
	rows := []struct {
		name    string
		v       exitVariant
		in      *core.Instance
		opts    Options
		onlyFbk bool // too large to search; checks the fallback only
		// shortcut is whether fewJobs takes the m ≥ n shortcut.
		shortcut bool
		// approxMin is whether the search's schedule loses to the
		// 2-approximation, which is then returned in its place.
		approxMin bool
	}{
		{name: "split", v: exitSplit, in: gen(16, 4, 3), opts: Options{MaxNodes: 300}},
		{name: "split-huge", v: exitSplit, in: gen(16, 4, 3), opts: Options{MaxNodes: 300, HugeMThreshold: 2}},
		{name: "preemptive", v: exitPreemptive, in: gen(8, 2, 3), opts: Options{MaxNodes: 150}, shortcut: true, approxMin: true},
		{name: "nonpreemptive", v: exitNonPreemptive, in: gen(12, 4, 3), opts: Options{MaxNodes: 300}, shortcut: true, approxMin: true},
		// Above approx.DefaultExplicitMachineLimit the 2-approximation has
		// no explicit schedule; with the huge-m threshold raised past m the
		// ordinary splittable scheme must still fall back to its compact
		// form.
		{name: "split-above-explicit-limit", v: exitSplit, in: gen(120, 40, 70000),
			opts: Options{HugeMThreshold: 1 << 20}, onlyFbk: true},
	}
	for _, row := range rows {
		row.opts.Epsilon = 1
		t.Run(row.name, func(t *testing.T) {
			apxMakespan, err := row.v.approx(row.in)
			if err != nil {
				t.Fatal(err)
			}

			fb := row.opts
			fb.MaxConfigs = 1
			got, err := row.v.solve(context.Background(), row.in, fb)
			if err != nil {
				t.Fatalf("fallback: %v", err)
			}
			if got.report.Engine != "approx-fallback" {
				t.Errorf("fallback engine %q, want approx-fallback", got.report.Engine)
			}
			if got.valid != nil {
				t.Errorf("fallback schedule invalid: %v", got.valid)
			}
			if got.makespan.Cmp(apxMakespan) != 0 {
				t.Errorf("fallback makespan %s, want the approx makespan %s", got.makespan.RatString(), apxMakespan.RatString())
			}
			if row.onlyFbk {
				if got.explicit {
					t.Error("fallback above the explicit-machine limit carries an explicit schedule")
				}
				return
			}

			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := row.v.solve(canceled, row.in, row.opts); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled solve returned %v, want context.Canceled", err)
			}

			// A panic is a bug, never a reason to degrade: it must leave the
			// scheme as the panic itself.
			if err := faultinject.Arm("ptas.probe", faultinject.Spec{Mode: faultinject.ModePanic, Msg: "exits"}); err != nil {
				t.Fatal(err)
			}
			func() {
				var err error
				defer func() {
					var pe *panicsafe.Error
					if !errors.As(err, &pe) {
						t.Errorf("injected panic returned %v, want a recovered panic", err)
					}
				}()
				defer panicsafe.Recover(&err, "test")
				_, err = row.v.solve(context.Background(), row.in, row.opts)
			}()
			faultinject.Reset()

			got, err = row.v.solve(context.Background(), row.in, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			rep := got.report
			if rep.InvDelta != 1 || rep.Guess <= 0 || rep.Guesses <= 0 || rep.Engine == "" || rep.Engine == "approx-fallback" {
				t.Errorf("success report %+v: want InvDelta 1, an accepted guess, a probe count and an engine", rep)
			}
			if got.valid != nil {
				t.Errorf("schedule invalid: %v", got.valid)
			}
			if c := got.makespan.Cmp(apxMakespan); c > 0 || (rep.Engine == "approx-min" && c != 0) {
				t.Errorf("makespan %s (engine %s) against approx %s breaks the best-of floor", got.makespan.RatString(), rep.Engine, apxMakespan.RatString())
			}
			if (rep.Engine == "approx-min") != row.approxMin {
				t.Errorf("engine %s, want approx-min: %v", rep.Engine, row.approxMin)
			}

			fb.HugeMThreshold = 0
			got, err = row.v.solve(context.Background(), fewJobs, fb)
			if err != nil {
				t.Fatalf("m ≥ n: %v", err)
			}
			if got.valid != nil {
				t.Errorf("m ≥ n schedule invalid: %v", got.valid)
			}
			if row.shortcut {
				if got.report != (Report{InvDelta: 1, Guess: 80}) || got.makespan.Cmp(big.NewRat(80, 1)) != 0 {
					t.Errorf("m ≥ n: report %+v makespan %s, want the shortcut's p_max schedule", got.report, got.makespan.RatString())
				}
			} else if got.report.Engine != "approx-fallback" {
				t.Errorf("m ≥ n: engine %q, want the search's approx-fallback (no shortcut)", got.report.Engine)
			}
		})
	}
}
