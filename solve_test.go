package ccsched_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/approx"
	"ccsched/internal/ptas"
)

// solveTestInstance builds a moderate uniform instance per variant.
func solveTestInstance(t *testing.T, n, classes int, m int64) *ccsched.Instance {
	t.Helper()
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: n, Classes: classes, Machines: m, Slots: 2, PMax: 100, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// variantCase pairs a variant with an instance and engine budget its PTAS
// solves in well under a second (the preemptive scheme's configuration sets
// grow fastest, so it gets the smallest instance, mirroring experiment E7).
type variantCase struct {
	variant  ccsched.Variant
	in       *ccsched.Instance
	maxNodes int
}

func variantCases(t *testing.T, seed int64) []variantCase {
	t.Helper()
	gen := func(n, classes int, m int64, slots int) *ccsched.Instance {
		in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
			N: n, Classes: classes, Machines: m, Slots: slots, PMax: 100, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	return []variantCase{
		{ccsched.Splittable, gen(16, 4, 3, 2), 300},
		{ccsched.NonPreemptive, gen(12, 4, 3, 2), 300},
		{ccsched.Preemptive, gen(8, 2, 2, 1), 150},
	}
}

// TestSolveParityWithWrappers proves the unified Solve facade returns the
// same makespans as the ptas and approx solvers it dispatches to, and that
// the parallel speculative guess search and the feasibility cache leave
// results bit-identical to the sequential, uncached path.
func TestSolveParityWithWrappers(t *testing.T) {
	for _, tc := range variantCases(t, 11) {
		seq, err := ccsched.Solve(context.Background(), tc.in, ccsched.Options{
			Variant: tc.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: tc.maxNodes,
			Parallelism: 1, NoCache: true,
		})
		if err != nil {
			t.Fatalf("variant %v sequential: %v", tc.variant, err)
		}
		if seq.Makespan.Cmp(seq.LowerBound) < 0 {
			t.Errorf("variant %v: makespan %s below certified lower bound %s",
				tc.variant, seq.Makespan.RatString(), seq.LowerBound.RatString())
		}
		// Parallel speculative search, fresh cache, and warm cache must all
		// reproduce the sequential result exactly.
		cache := ccsched.NewFeasibilityCache()
		for _, opts := range []ccsched.Options{
			{Variant: tc.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: tc.maxNodes, Parallelism: 4, NoCache: true},
			{Variant: tc.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: tc.maxNodes, Parallelism: 4, Cache: cache},
			{Variant: tc.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: tc.maxNodes, Parallelism: 1, Cache: cache},
		} {
			got, err := ccsched.Solve(context.Background(), tc.in, opts)
			if err != nil {
				t.Fatalf("variant %v opts %+v: %v", tc.variant, opts, err)
			}
			if got.Makespan.Cmp(seq.Makespan) != 0 {
				t.Errorf("variant %v opts %+v: makespan %s != sequential %s",
					tc.variant, opts, got.Makespan.RatString(), seq.Makespan.RatString())
			}
			if got.Report.Guess != seq.Report.Guess || got.Report.Guesses != seq.Report.Guesses {
				t.Errorf("variant %v opts %+v: probe trace (%d, %d) != sequential (%d, %d)",
					tc.variant, opts, got.Report.Guess, got.Report.Guesses, seq.Report.Guess, seq.Report.Guesses)
			}
		}
		// The third run above re-walked a fully warmed cache.
		warm, err := ccsched.Solve(context.Background(), tc.in, ccsched.Options{
			Variant: tc.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: tc.maxNodes,
			Parallelism: 1, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Report.CacheHits == 0 {
			t.Errorf("variant %v: warmed cache produced no hits", tc.variant)
		}
	}

	// The scheme called directly agrees with the facade.
	in := solveTestInstance(t, 16, 4, 3)
	ptasSeq, err := ptas.SolveSplittable(context.Background(), in, ptas.Options{Epsilon: 0.5, MaxNodes: 300})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := ccsched.Solve(context.Background(), in, ccsched.Options{
		Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: 300, Parallelism: 1, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ptasSeq.Makespan().Cmp(uni.Makespan) != 0 {
		t.Errorf("ptas.SolveSplittable %s != Solve %s", ptasSeq.Makespan().RatString(), uni.Makespan.RatString())
	}
	apxRes, err := approx.SolveSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	apxUni, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierApprox})
	if err != nil {
		t.Fatal(err)
	}
	if apxRes.Makespan().Cmp(apxUni.Makespan) != 0 {
		t.Errorf("approx.SolveSplittable %s != Solve/TierApprox %s", apxRes.Makespan().RatString(), apxUni.Makespan.RatString())
	}
}

// TestSolveSchedulesValidate checks the populated schedule fields are
// consistent with the instance for each variant and tier.
func TestSolveSchedulesValidate(t *testing.T) {
	for _, tier := range []ccsched.Tier{ccsched.TierApprox, ccsched.TierPTAS} {
		for _, tc := range variantCases(t, 13) {
			res, err := ccsched.Solve(context.Background(), tc.in, ccsched.Options{
				Variant: tc.variant, Tier: tier, Epsilon: 0.5, MaxNodes: tc.maxNodes, NoCache: true,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", tier, tc.variant, err)
			}
			switch tc.variant {
			case ccsched.Splittable:
				if res.CompactSplit == nil {
					t.Fatalf("%v/%v: missing compact schedule", tier, tc.variant)
				}
				if err := res.CompactSplit.Validate(tc.in); err != nil {
					t.Errorf("%v/%v: %v", tier, tc.variant, err)
				}
			case ccsched.Preemptive:
				if res.Preemptive == nil {
					t.Fatalf("%v/%v: missing schedule", tier, tc.variant)
				}
				if err := res.Preemptive.Validate(tc.in); err != nil {
					t.Errorf("%v/%v: %v", tier, tc.variant, err)
				}
			case ccsched.NonPreemptive:
				if res.NonPreemptive == nil {
					t.Fatalf("%v/%v: missing schedule", tier, tc.variant)
				}
				if err := res.NonPreemptive.Validate(tc.in); err != nil {
					t.Errorf("%v/%v: %v", tier, tc.variant, err)
				}
			}
		}
	}
}

// TestSolveExactTier exercises the exact tier through the facade, including
// the unsupported-variant error.
func TestSolveExactTier(t *testing.T) {
	in := &ccsched.Instance{
		P:     []int64{4, 3, 5, 2},
		Class: []int{0, 0, 1, 1},
		M:     2,
		Slots: 1,
	}
	res, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.RatString() != "7" {
		t.Errorf("exact non-preemptive optimum %s, want 7", res.Makespan.RatString())
	}
	if res.NonPreemptive == nil {
		t.Error("exact non-preemptive should carry a schedule")
	}
	if _, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.Preemptive, Tier: ccsched.TierExact}); err == nil {
		t.Error("exact preemptive should be rejected")
	}
	big := solveTestInstance(t, 200, 20, 8)
	if _, err := ccsched.Solve(context.Background(), big, ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierExact}); !errors.Is(err, ccsched.ErrTooLarge) {
		t.Errorf("oversized exact solve: got %v, want ErrTooLarge", err)
	}
}

// cancelInstance is sized so every variant's PTAS runs for tens of seconds
// uncancelled (measured ≥ 30s sequential at ε = 0.5 on the development
// machine); the cancellation tests below abort it after milliseconds.
func cancelInstance(t *testing.T) *ccsched.Instance {
	t.Helper()
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 100, Classes: 20, Machines: 10, Slots: 3, PMax: 10000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSolveCancellation proves Solve honors context cancellation promptly —
// within one N-fold iteration boundary, not after the full multi-second
// solve — for each variant, sequentially and with parallel probes.
func TestSolveCancellation(t *testing.T) {
	in := cancelInstance(t)
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		for _, par := range []int{1, 4} {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			start := time.Now()
			_, err := ccsched.Solve(ctx, in, ccsched.Options{
				Variant: variant, Tier: ccsched.TierPTAS, Epsilon: 0.5,
				Parallelism: par, NoCache: true,
			})
			elapsed := time.Since(start)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("variant %v par=%d: err %v, want DeadlineExceeded", variant, par, err)
			}
			// Generous bound for slow CI and the race detector's overhead:
			// the solve runs tens of seconds uncancelled, so returning this
			// fast proves promptness.
			if elapsed > 10*time.Second {
				t.Errorf("variant %v par=%d: returned after %s, cancellation not prompt",
					variant, par, elapsed)
			}
		}
	}
}

// TestSolveExactCancellation proves the exact tier also honors context
// cancellation: a branch-and-bound search that runs for seconds on
// near-equal job sizes (weak pruning) aborts at the deadline.
func TestSolveExactCancellation(t *testing.T) {
	p := make([]int64, 24)
	cls := make([]int, 24)
	for i := range p {
		p[i] = int64(100 + (i*7)%3 - 1) // 99..101: no quick optimality proof
		cls[i] = i % 12
	}
	in := &ccsched.Instance{P: p, Class: cls, M: 5, Slots: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ccsched.Solve(ctx, in, ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierExact})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("exact tier returned after %s, cancellation not prompt", elapsed)
	}
}

// TestSolvePreCanceledContext checks an already-canceled context never
// starts work.
func TestSolvePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := solveTestInstance(t, 20, 4, 3)
	if _, err := ccsched.Solve(ctx, in, ccsched.Options{Variant: ccsched.Splittable}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
}

// TestSolveConcurrentSharedCache hammers one FeasibilityCache from
// concurrent Solve calls across variants and workloads. Run under the race
// detector (the CI docs job does) it proves the cache and the speculative
// search are data-race free; in any mode it checks cross-call result
// consistency against an uncached reference.
func TestSolveConcurrentSharedCache(t *testing.T) {
	cache := ccsched.NewFeasibilityCache()
	type job struct {
		variant ccsched.Variant
		seed    int64
	}
	genFor := func(variant ccsched.Variant, seed int64) (*ccsched.Instance, int, error) {
		// Per-variant sizing mirrors variantCases: the preemptive scheme
		// needs the smallest instances and a node cap.
		switch variant {
		case ccsched.Preemptive:
			in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
				N: 8, Classes: 2, Machines: 2, Slots: 1, PMax: 30, Seed: seed,
			})
			return in, 150, err
		default:
			in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
				N: 14, Classes: 4, Machines: 3, Slots: 2, PMax: 60, Seed: seed,
			})
			return in, 300, err
		}
	}
	var jobs []job
	for _, v := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		for seed := int64(1); seed <= 3; seed++ {
			jobs = append(jobs, job{v, seed})
		}
	}
	want := make(map[job]string)
	for _, j := range jobs {
		in, maxNodes, err := genFor(j.variant, j.seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ccsched.Solve(context.Background(), in, ccsched.Options{
			Variant: j.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: maxNodes, Parallelism: 1, NoCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[j] = ref.Makespan.RatString()
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*2)
	for round := 0; round < 2; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				in, maxNodes, err := genFor(j.variant, j.seed)
				if err != nil {
					errs <- err
					return
				}
				res, err := ccsched.Solve(context.Background(), in, ccsched.Options{
					Variant: j.variant, Tier: ccsched.TierPTAS, Epsilon: 0.5, MaxNodes: maxNodes, Parallelism: 2, Cache: cache,
				})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Makespan.RatString(); got != want[j] {
					errs <- errors.New("cached concurrent solve diverged: " + got + " != " + want[j])
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cache.Len() == 0 {
		t.Error("shared cache stayed empty")
	}
}
