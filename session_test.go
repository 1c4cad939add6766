package ccsched

// Differential tests for scheduling sessions: a session re-solve must
// return a makespan bit-identical to a cold Solve of the mutated instance.
// Random delta streams (resizes, removals, arrivals, machine changes) run
// against every generator family; the cold reference solves with an
// isolated fresh cache while the session side solves over the cache it kept
// from earlier rounds — the two must agree exactly.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// applySessionDeltas mutates the session with a deterministic random delta
// batch: ~5% resizes plus a removal, an arrival, and an occasional machine
// change.
func applySessionDeltas(t *testing.T, s *Session, rng *rand.Rand, pmax int64, classes int) {
	t.Helper()
	ids := s.JobIDs()
	if len(ids) == 0 {
		t.Fatal("session ran out of jobs")
	}
	resizes := len(ids)/20 + 1
	for i := 0; i < resizes; i++ {
		id := ids[rng.Intn(len(ids))]
		if err := s.Resize(id, 1+rng.Int63n(pmax)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids) > 8 {
		if err := s.RemoveJobs(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddJobs([]int64{1 + rng.Int63n(pmax)}, []int{rng.Intn(classes)}); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(4) == 0 {
		in := s.Instance()
		m := in.M + int64(rng.Intn(3)) - 1
		if m < 1 {
			m = 1
		}
		if err := s.SetMachines(m); err != nil {
			t.Fatal(err)
		}
	}
}

// sessionParityCase runs one session through `rounds` delta rounds and
// compares every re-solve against a cold Solve of the same instance.
func sessionParityCase(t *testing.T, in *Instance, opts Options, rounds int, seed int64, pmax int64, classes int) {
	t.Helper()
	sess, err := NewSession(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 31337))
	ctx := context.Background()
	for round := 0; round <= rounds; round++ {
		if round > 0 {
			applySessionDeltas(t, sess, rng, pmax, classes)
		}
		got, err := sess.Solve(ctx)
		if err != nil {
			t.Fatalf("round %d: session solve: %v", round, err)
		}
		coldOpts := opts
		coldOpts.Cache = NewFeasibilityCache() // honestly cold: no shared verdicts
		want, err := Solve(ctx, sess.Instance(), coldOpts)
		if err != nil {
			t.Fatalf("round %d: cold solve: %v", round, err)
		}
		if got.Makespan.Cmp(want.Makespan) != 0 {
			t.Fatalf("round %d: session makespan %s != cold %s (report %+v vs %+v)",
				round, got.Makespan.RatString(), want.Makespan.RatString(), got.Report, want.Report)
		}
		if got.LowerBound.Cmp(want.LowerBound) != 0 {
			t.Fatalf("round %d: session lower bound %s != cold %s",
				round, got.LowerBound.RatString(), want.LowerBound.RatString())
		}
	}
	if sess.Resolves() != int64(rounds)+1 {
		t.Fatalf("session ran %d solves, want %d", sess.Resolves(), rounds+1)
	}
}

// TestSessionDeltaParityAllFamilies drives random delta streams on all six
// generator families (splittable PTAS) and checks bit-identical makespans
// against cold solves every round.
func TestSessionDeltaParityAllFamilies(t *testing.T) {
	for _, fam := range GeneratorFamilies() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam, seed), func(t *testing.T) {
				in, err := Generate(fam, GeneratorConfig{
					N: 40, Classes: 6, Machines: 5, Slots: 2, PMax: 200, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Variant: Splittable, Tier: TierPTAS, Epsilon: 1}
				sessionParityCase(t, in, opts, 5, seed, 200, 6)
			})
		}
	}
}

// TestSessionDeltaParityVariants covers the preemptive and non-preemptive
// pipelines (smaller instances; their PTAS constructions are heavier).
func TestSessionDeltaParityVariants(t *testing.T) {
	cases := []struct {
		variant Variant
		cfg     GeneratorConfig
		opts    Options
	}{
		{Preemptive,
			GeneratorConfig{N: 8, Classes: 2, Machines: 2, Slots: 1, PMax: 30, Seed: 7},
			Options{Variant: Preemptive, Tier: TierPTAS, Epsilon: 1, MaxNodes: 120}},
		{NonPreemptive,
			GeneratorConfig{N: 10, Classes: 3, Machines: 3, Slots: 2, PMax: 40, Seed: 7},
			Options{Variant: NonPreemptive, Tier: TierPTAS, Epsilon: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.variant.String(), func(t *testing.T) {
			in, err := Generate("uniform", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sessionParityCase(t, in, tc.opts, 3, tc.cfg.Seed, tc.cfg.PMax, tc.cfg.Classes)
		})
	}
}

// TestSessionSolveMatchesKeptCacheSolve pins what a session re-solve is:
// plain Solve over one feasibility cache kept across rounds. The churn
// benchmarks' resize stream (5% of jobs re-estimated by up to ±2% per round)
// runs through a Session while Solve replays the same instances over its
// own kept cache; makespan, probe count and cache hits must agree every
// round, so the session searches exactly like Solve does.
func TestSessionSolveMatchesKeptCacheSolve(t *testing.T) {
	ctx := context.Background()
	for _, fam := range []string{"uniform", "zipf"} {
		for _, variant := range []Variant{Splittable, Preemptive, NonPreemptive} {
			t.Run(fam+"/"+variant.String(), func(t *testing.T) {
				in, err := Generate(fam, GeneratorConfig{
					N: churnN, Classes: churnClasses, Machines: churnM, Slots: churnSlots, PMax: churnPMax, Seed: 101,
				})
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Variant: variant, Tier: TierPTAS, Epsilon: 1}
				sess, err := NewSession(in, opts)
				if err != nil {
					t.Fatal(err)
				}
				kept := opts
				kept.Cache = NewFeasibilityCache()
				mirror, ids := in.Clone(), sess.JobIDs()
				for round := 0; round <= 24; round++ {
					if round > 0 {
						prev := append([]int64(nil), mirror.P...)
						resizeRound(round, mirror.P)
						for pos, p := range mirror.P {
							if p != prev[pos] {
								if err := sess.Resize(ids[pos], p); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					got, err := sess.Solve(ctx)
					if err != nil {
						t.Fatalf("round %d: session solve: %v", round, err)
					}
					want, err := Solve(ctx, mirror.Clone(), kept)
					if err != nil {
						t.Fatalf("round %d: kept-cache solve: %v", round, err)
					}
					if got.Makespan.Cmp(want.Makespan) != 0 ||
						got.Report.Guesses != want.Report.Guesses || got.Report.CacheHits != want.Report.CacheHits {
						t.Fatalf("round %d: session makespan %s (guesses %d, cache hits %d), kept-cache Solve %s (%d, %d)",
							round, got.Makespan.RatString(), got.Report.Guesses, got.Report.CacheHits,
							want.Makespan.RatString(), want.Report.Guesses, want.Report.CacheHits)
					}
				}
			})
		}
	}
}

// TestSessionSolveSnapshotConsistency pins the contract the HTTP pipeline
// depends on: a SolveSnapshot of an older snapshot returns the result for
// THAT snapshot (its flight key and permutation were computed from it),
// even when deltas landed in between, and does not clobber the session's
// current state.
func TestSessionSolveSnapshotConsistency(t *testing.T) {
	in, err := Generate("uniform", GeneratorConfig{N: 12, Classes: 3, Machines: 3, Slots: 2, PMax: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Variant: Splittable, Tier: TierApprox}
	sess, err := NewSession(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, ids, gen := sess.Snapshot()
	// Deltas land while the snapshot's "flight" is still queued.
	if err := sess.Resize(ids[0], 9999); err != nil {
		t.Fatal(err)
	}
	got, err := sess.SolveSnapshot(context.Background(), snap, gen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("SolveSnapshot returned %s for the snapshot, want %s (solved the mutated instance instead?)",
			got.Makespan.RatString(), want.Makespan.RatString())
	}
	// The session's own Solve must still see the mutation (the stale
	// snapshot result was not installed as current).
	cur, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cur.Makespan.Cmp(got.Makespan) == 0 {
		t.Fatal("current solve returned the stale snapshot's makespan; the 9999 resize was lost")
	}
	if sess.Resolves() != 2 {
		t.Fatalf("resolves = %d, want 2 (snapshot + current)", sess.Resolves())
	}
}

// TestSessionDeltaAPI exercises the delta surface itself: stable ids,
// all-or-nothing removals, validation, and the no-delta fast path.
func TestSessionDeltaAPI(t *testing.T) {
	in, err := Generate("uniform", GeneratorConfig{N: 6, Classes: 2, Machines: 2, Slots: 2, PMax: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(in, Options{Variant: Splittable, Tier: TierApprox})
	if err != nil {
		t.Fatal(err)
	}
	ids := sess.JobIDs()
	if len(ids) != 6 {
		t.Fatalf("got %d ids, want 6", len(ids))
	}
	added, err := sess.AddJobs([]int64{7, 9}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || added[0] == added[1] {
		t.Fatalf("bad ids from AddJobs: %v", added)
	}
	if err := sess.RemoveJobs(ids[0], added[0]); err != nil {
		t.Fatal(err)
	}
	if err := sess.RemoveJobs(ids[0]); err == nil {
		t.Fatal("removing an already-removed id succeeded")
	}
	if err := sess.RemoveJobs(ids[1], 999999); err == nil {
		t.Fatal("partially-unknown removal succeeded")
	}
	if got := len(sess.JobIDs()); got != 6 {
		t.Fatalf("after failed removal: %d jobs, want 6 (all-or-nothing)", got)
	}
	if err := sess.Resize(added[1], 0); err == nil {
		t.Fatal("zero-size resize succeeded")
	}
	if err := sess.Resize(added[1], 11); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetMachines(0); err == nil {
		t.Fatal("zero machines accepted")
	}
	if err := sess.SetSlots(0); err == nil {
		t.Fatal("zero slots accepted")
	}
	res1, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("no-delta Solve re-ran instead of returning the cached result")
	}
	if sess.Resolves() != 1 {
		t.Fatalf("resolves = %d, want 1", sess.Resolves())
	}
	// The session instance mirrors the deltas.
	cur := sess.Instance()
	if cur.N() != 6 {
		t.Fatalf("instance has %d jobs, want 6", cur.N())
	}
}
