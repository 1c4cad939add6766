package server

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"

	"ccsched"
)

// TestResubmitAfterAbandonedFlight pins the dead-flight rule: a queued
// flight whose last waiter detached (context canceled) must not capture
// later identical submissions — they get a fresh flight and a real result,
// not the abandoned flight's cancellation error.
func TestResubmitAfterAbandonedFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	solver := func(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &ccsched.Result{
				Variant:    opts.Variant,
				Tier:       ccsched.TierApprox,
				Makespan:   new(big.Rat).SetInt64(in.TotalLoad()),
				LowerBound: new(big.Rat).SetInt64(1),
			}, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", ccsched.ErrCanceled, ctx.Err())
		}
	}
	s := New(Config{Workers: 1, Solver: solver})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	blocker := genInstance(t, "uniform", 10, 3, 2, 2, 1)
	target := genInstance(t, "uniform", 10, 3, 2, 2, 2)

	subA, err := s.submit(blocker, opts, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now busy on the blocker

	subY, err := s.submit(target, opts, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	s.detach(subY.flight) // last waiter leaves the queued flight
	if subY.flight.ctx.Err() == nil {
		t.Fatal("abandoned queued flight's context not canceled")
	}

	subY2, err := s.submit(target, opts, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if subY2.flight == subY.flight {
		t.Fatal("resubmission coalesced onto the dead flight")
	}
	if subY2.coalesced {
		t.Fatal("resubmission counted as coalesced despite the dead flight")
	}

	close(release)
	select {
	case <-subY2.flight.done:
	case <-time.After(10 * time.Second):
		t.Fatal("replacement flight never finished")
	}
	if subY2.flight.err != nil {
		t.Fatalf("replacement flight inherited an error: %v", subY2.flight.err)
	}
	s.detach(subY2.flight)
	s.detach(subA.flight)
}

// TestAdmissionBounds pins the admission-side resource fences: instances
// beyond MaxJobs are refused with ErrInstanceTooLarge (the approx tier is
// not cancellable mid-solve, so size must be policed here), and a
// wire-supplied timeout beyond MaxTimeout is clamped onto the flight's
// context deadline.
func TestAdmissionBounds(t *testing.T) {
	release := make(chan struct{})
	close(release)
	solver := func(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error) {
		return &ccsched.Result{Variant: opts.Variant, Makespan: new(big.Rat).SetInt64(1), LowerBound: new(big.Rat).SetInt64(1)}, nil
	}
	s := New(Config{Workers: 1, MaxJobs: 8, MaxTimeout: time.Minute, Solver: solver})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}

	big9 := genInstance(t, "uniform", 9, 3, 2, 2, 4)
	if _, err := s.submit(big9, opts, 0, false, false); !errors.Is(err, ErrInstanceTooLarge) {
		t.Fatalf("9 jobs past MaxJobs=8: got %v, want ErrInstanceTooLarge", err)
	}
	sub, err := s.submit(genInstance(t, "uniform", 8, 3, 2, 2, 4), opts, 24*time.Hour, false, false)
	if err != nil {
		t.Fatal(err)
	}
	deadline, ok := sub.flight.ctx.Deadline()
	if !ok || time.Until(deadline) > time.Minute {
		t.Fatalf("24h request deadline not clamped to MaxTimeout: %v (ok=%v)", time.Until(deadline), ok)
	}
	<-sub.flight.done
	s.detach(sub.flight)
}

// TestSanitizeOptionsClampsResourceKnobs pins the admission-side clamp on
// wire-settable resource knobs: a hostile machine-materialization request
// must not reach the solver unbounded, and the
// clamp must happen before the request key so sanitized duplicates share a
// solve.
func TestSanitizeOptionsClampsResourceKnobs(t *testing.T) {
	hostile := ccsched.Options{
		Variant:              ccsched.Splittable,
		Tier:                 ccsched.TierPTAS,
		ExplicitMachineLimit: 1 << 40,
		HugeMThreshold:       1 << 40,
	}
	got := sanitizeOptions(hostile, false)
	if got.ExplicitMachineLimit != 1<<20 || got.HugeMThreshold != 1<<20 {
		t.Fatalf("sanitize left resource knobs unbounded: %+v", got)
	}
	in := canonicalize(genInstance(t, "uniform", 12, 3, 2, 2, 3)).in
	tame := hostile
	tame.ExplicitMachineLimit, tame.HugeMThreshold = 1<<20, 1<<20
	if requestKey(in, sanitizeOptions(hostile, false)) != requestKey(in, tame) {
		t.Fatal("sanitized hostile options do not share the tame request key")
	}
}
