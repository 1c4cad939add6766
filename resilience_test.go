package ccsched

// Resilience contract at the library boundary: engine panics surface as
// typed internal errors (with stack and span, never a dead process), and the
// degraded-tier fallback answers with the certified 2-approximation on every
// workload family when the full tier cannot finish.

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"ccsched/internal/faultinject"
	"ccsched/internal/generator"
)

// TestFaultInjectedPanicBecomesErrInternal arms panic faults at engine
// injection points and checks each solve returns an error wrapping
// ErrInternal — concrete type *InternalError carrying the recovered stack —
// and that the very next un-faulted solve of the same instance succeeds with
// the unfaulted baseline makespan (no poisoned state left behind).
func TestFaultInjectedPanicBecomesErrInternal(t *testing.T) {
	defer faultinject.Reset()
	cases := []struct {
		point string
		opts  Options
		in    *Instance
	}{
		{
			point: "ptas.probe",
			opts:  Options{Variant: Splittable, Tier: TierPTAS, Epsilon: 0.5},
			in:    generator.Uniform(generator.Config{N: 30, Classes: 5, Machines: 4, Slots: 2, PMax: 60, Seed: 7}),
		},
		{
			// ilp.node fires deep inside a probe's branch-and-bound; the
			// panic must climb through nfold and the guess search without
			// being absorbed by the approx fallback.
			point: "ilp.node",
			opts:  Options{Variant: NonPreemptive, Tier: TierPTAS, Epsilon: 0.5},
			in:    generator.Uniform(generator.Config{N: 12, Classes: 3, Machines: 3, Slots: 2, PMax: 50, Seed: 51}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			faultinject.Reset()
			// Every solve gets its own feasibility cache: a shared (or the
			// process-default) cache would let the faulted solve answer all
			// probes from the baseline's verdicts without ever reaching the
			// armed engine point.
			freshOpts := func() Options {
				o := tc.opts
				o.Cache = NewFeasibilityCache()
				return o
			}
			base, err := Solve(context.Background(), tc.in, freshOpts())
			if err != nil {
				t.Fatalf("baseline solve: %v", err)
			}
			if err := faultinject.Arm(tc.point, faultinject.Spec{Mode: faultinject.ModePanic, Msg: "chaos"}); err != nil {
				t.Fatal(err)
			}
			_, err = Solve(context.Background(), tc.in, freshOpts())
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("faulted solve returned %v, want ErrInternal", err)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error %v does not unwrap to *InternalError", err)
			}
			if len(ie.Stack) == 0 || ie.Span == "" {
				t.Fatalf("internal error missing diagnostics: span=%q stack=%d bytes", ie.Span, len(ie.Stack))
			}
			faultinject.Reset()
			res, err := Solve(context.Background(), tc.in, freshOpts())
			if err != nil {
				t.Fatalf("solve after fault cleared: %v", err)
			}
			if res.Makespan.Cmp(base.Makespan) != 0 {
				t.Fatalf("post-fault makespan %s != baseline %s", res.Makespan.RatString(), base.Makespan.RatString())
			}
		})
	}
}

// TestFallbackDegradedTwoApproxAllFamilies checks the degraded-tier fallback
// on every generator family: when the requested tier cannot run (the context
// is already canceled) and FallbackTier is TierApprox, Solve still answers —
// a degraded 2-approximation with a certified lower bound, makespan within
// twice that bound — and the full-tier solve of the same instance is
// deterministic (two runs agree bit for bit).
func TestFallbackDegradedTwoApproxAllFamilies(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	two := big.NewRat(2, 1)
	for i, fam := range generator.Families() {
		t.Run(fam.Name, func(t *testing.T) {
			in := fam.Gen(generator.Config{N: 40, Classes: 6, Machines: 4, Slots: 3, PMax: 80, Seed: int64(100 + i)})
			opts := Options{Variant: Splittable, Tier: TierPTAS, Epsilon: 0.5, FallbackTier: TierApprox}
			res, err := Solve(canceled, in, opts)
			if err != nil {
				t.Fatalf("fallback solve: %v", err)
			}
			if !res.Degraded || res.Tier != TierApprox {
				t.Fatalf("fallback result not degraded 2-approx: degraded=%v tier=%v", res.Degraded, res.Tier)
			}
			if res.LowerBound == nil {
				t.Fatal("degraded result missing certified lower bound")
			}
			bound := new(big.Rat).Mul(two, res.LowerBound)
			if res.Makespan.Cmp(bound) > 0 {
				t.Fatalf("degraded makespan %s > 2x lower bound %s", res.Makespan.RatString(), res.LowerBound.RatString())
			}
			if res.Makespan.Cmp(res.LowerBound) < 0 {
				t.Fatalf("makespan %s below its own lower bound %s", res.Makespan.RatString(), res.LowerBound.RatString())
			}
			// The full tier remains deterministic on the same instance.
			full1, err := Solve(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("full solve: %v", err)
			}
			if full1.Degraded {
				t.Fatal("uncontended full solve reported degraded")
			}
			full2, err := Solve(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("full solve (repeat): %v", err)
			}
			if full1.Makespan.Cmp(full2.Makespan) != 0 {
				t.Fatalf("full solve nondeterministic: %s vs %s", full1.Makespan.RatString(), full2.Makespan.RatString())
			}
		})
	}
}
