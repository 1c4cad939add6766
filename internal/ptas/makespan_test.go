package ptas

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// TestReturnedMakespanMatchesSchedule requires the makespan each scheme
// carries out of runScheme to equal the makespan of the schedule it
// returns, at every exit: an accepted guess, approx-min, approx-fallback,
// the m ≥ n shortcut, and instances the driver scales.
func TestReturnedMakespanMatchesSchedule(t *testing.T) {
	gen := func(n, classes int, m, pmax, seed int64) *core.Instance {
		return generator.Uniform(generator.Config{N: n, Classes: classes, Machines: m, Slots: 2, PMax: pmax, Seed: seed})
	}
	instances := []*core.Instance{
		gen(16, 4, 3, 100, 7),
		gen(8, 2, 3, 100, 7),
		gen(12, 4, 3, 100, 7),
		// Bounds below 4g²: the driver scales.
		gen(4, 2, 2, 2, 1),
		gen(6, 2, 3, 2, 7),
		{P: []int64{50, 30, 80}, Class: []int{0, 1, 0}, M: 3, Slots: 1},
	}
	solvers := []struct {
		name    string
		variant core.Variant
		solve   func(in *core.Instance, o Options) (carried, built *big.Rat, rep Report, err error)
	}{
		{"split", core.Splittable, func(in *core.Instance, o Options) (*big.Rat, *big.Rat, Report, error) {
			r, err := SolveSplittable(context.Background(), in, o)
			if err != nil {
				return nil, nil, Report{}, err
			}
			built := r.Compact.Makespan()
			if r.Schedule != nil && r.Schedule.Makespan().Cmp(built) != 0 {
				return nil, nil, Report{}, fmt.Errorf("explicit makespan %s, compact %s", r.Schedule.Makespan(), built)
			}
			return r.Makespan(), built, r.Report, nil
		}},
		{"preemptive", core.Preemptive, func(in *core.Instance, o Options) (*big.Rat, *big.Rat, Report, error) {
			r, err := SolvePreemptive(context.Background(), in, o)
			if err != nil {
				return nil, nil, Report{}, err
			}
			return r.Makespan(), r.Schedule.Makespan(), r.Report, nil
		}},
		{"nonpreemptive", core.NonPreemptive, func(in *core.Instance, o Options) (*big.Rat, *big.Rat, Report, error) {
			r, err := SolveNonPreemptive(context.Background(), in, o)
			if err != nil {
				return nil, nil, Report{}, err
			}
			return r.Makespan(), core.RatInt(r.Schedule.Makespan(in)), r.Report, nil
		}},
	}
	optsRows := []Options{
		{Epsilon: 1, MaxNodes: 300},
		{Epsilon: 1, MaxConfigs: 1},                    // approx-fallback
		{Epsilon: 1, MaxNodes: 300, HugeMThreshold: 2}, // hugeScheme
	}
	seen := map[string]bool{}
	for _, s := range solvers {
		for ii, in := range instances {
			for oi, o := range optsRows {
				o.Cache = NewCache()
				carried, built, rep, err := s.solve(in, o)
				if err != nil {
					t.Fatalf("%s/%d/%d: %v", s.name, ii, oi, err)
				}
				if carried.Cmp(built) != 0 {
					t.Errorf("%s/%d/%d (engine %q): carried makespan %s, schedule %s", s.name, ii, oi, rep.Engine, carried, built)
				}
				exit := "search"
				switch {
				case rep.Engine == "approx-fallback" || rep.Engine == "approx-min":
					exit = string(rep.Engine)
				case rep.Engine == "":
					exit = "shortcut"
				}
				seen[exit] = true
				if _, bound, err := certifiedBound(in, s.variant); err == nil && s.variant != core.NonPreemptive {
					if g, _ := o.delta(); scaleFactor(bound.Rat(), in.PMax(), 4*g*g) > 1 {
						seen["scaled-"+exit] = true
					}
				}
			}
		}
	}
	for _, want := range []string{"search", "approx-min", "approx-fallback", "shortcut", "scaled-search", "scaled-approx-min", "scaled-approx-fallback"} {
		if !seen[want] {
			t.Errorf("no solve took exit %s (seen %v)", want, seen)
		}
	}
}

// TestApproxPlanMakespanMatchesRealized requires each scheme's
// constant-factor plan to report the makespan of the schedule it realizes,
// above the explicit-machine limit and on the huge-m scheme included.
func TestApproxPlanMakespanMatchesRealized(t *testing.T) {
	ins := []*core.Instance{
		generator.Uniform(generator.Config{N: 60, Classes: 12, Machines: 5, Slots: 3, PMax: 500, Seed: 3}),
		generator.Zipf(generator.Config{N: 60, Classes: 30, Machines: 4, Slots: 8, PMax: 90, Seed: 4}),
		generator.Uniform(generator.Config{N: 120, Classes: 40, Machines: approx.DefaultExplicitMachineLimit + 4465, Slots: 2, PMax: 100, Seed: 7}),
		{P: []int64{1 << 40, 1 << 39, 12345}, Class: []int{0, 0, 1}, M: 1 << 44, Slots: 2},
	}
	for i, in := range ins {
		checkPlan(t, fmt.Sprintf("split/%d", i), in, splitScheme)
		checkPlan(t, fmt.Sprintf("huge/%d", i), in, hugeScheme)
		checkPlan(t, fmt.Sprintf("preemptive/%d", i), in, preScheme)
		checkPlan(t, fmt.Sprintf("nonpreemptive/%d", i), in, npScheme)
	}
}

func checkPlan[G guess[S], S any](t *testing.T, name string, in *core.Instance, sc scheme[G, S]) {
	t.Helper()
	ix, bound, err := certifiedBound(in, sc.variant)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.approx(ix, bound)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := sc.makespan(in, plan.realize()); plan.makespan.Cmp(got) != 0 {
		t.Errorf("%s: plan makespan %s, realized %s", name, plan.makespan, got)
	}
}
