package ptas

import (
	"context"
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// The warm-start parity differential. Warm starts are verdict-only by
// construction (see internal/lp/warm.go), so a warm-started search must
// accept the same guess after the same number of probes and emit a schedule
// with the same makespan as a cold search — bit-identically, on every
// generator family, at a δ fine enough that the exact engine's branch and
// bound actually branches (and the warm restore actually prunes).

// paritySummary is the triple that must match bit-identically.
type paritySummary struct {
	guess    int64
	guesses  int
	makespan *big.Rat
	warmHits int64
}

// runParity solves one variant and reduces the result to the parity triple.
func runParity(t *testing.T, variant string, in *core.Instance, opts Options) paritySummary {
	t.Helper()
	ctx := context.Background()
	switch variant {
	case "splittable":
		r, err := SolveSplittable(ctx, in, opts)
		if err != nil {
			t.Fatalf("splittable: %v", err)
		}
		return paritySummary{r.Report.Guess, r.Report.Guesses, r.Makespan(), r.Report.WarmHits}
	case "nonpreemptive":
		r, err := SolveNonPreemptive(ctx, in, opts)
		if err != nil {
			t.Fatalf("nonpreemptive: %v", err)
		}
		return paritySummary{r.Report.Guess, r.Report.Guesses, new(big.Rat).SetInt64(r.Schedule.Makespan(in)), r.Report.WarmHits}
	case "preemptive":
		r, err := SolvePreemptive(ctx, in, opts)
		if err != nil {
			t.Fatalf("preemptive: %v", err)
		}
		return paritySummary{r.Report.Guess, r.Report.Guesses, r.Makespan(), r.Report.WarmHits}
	}
	t.Fatalf("unknown variant %q", variant)
	return paritySummary{}
}

// totalWarmHits proves the differential exercised the warm path at all: a
// parity test whose warm runs never pruned anything would pass vacuously.
var totalWarmHits atomic.Int64

func TestWarmStartParityAllFamilies(t *testing.T) {
	variants := []string{"splittable", "nonpreemptive", "preemptive"}
	for _, fam := range generator.Families() {
		for seed := int64(1); seed <= 5; seed++ {
			in := fam.Gen(generator.Config{
				N: 15, Classes: 3, Machines: 3, Slots: 2, PMax: 80, Seed: seed,
			})
			for _, variant := range variants {
				variant, in := variant, in
				name := fmt.Sprintf("%s/%s/seed=%d", fam.Name, variant, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					// δ = 1/2 makes the exact engine branch; the node cap
					// keeps rejected probes bounded; no cache, so both runs
					// do all of their own solving. The preemptive scheme runs
					// at δ = 1: its interval-configuration set at δ = 1/2 is
					// orders of magnitude larger and would dominate the whole
					// suite without adding warm-path coverage.
					opts := Options{Epsilon: 0.5, MaxNodes: 150}
					if variant == "preemptive" {
						opts.Epsilon = 1.0
					}
					cold := opts
					cold.NoWarmStart = true
					warm := runParity(t, variant, in, opts)
					coldRes := runParity(t, variant, in, cold)
					if warm.guess != coldRes.guess {
						t.Fatalf("accepted guess diverged: warm %d, cold %d", warm.guess, coldRes.guess)
					}
					if warm.guesses != coldRes.guesses {
						t.Fatalf("probe count diverged: warm %d, cold %d", warm.guesses, coldRes.guesses)
					}
					if warm.makespan.Cmp(coldRes.makespan) != 0 {
						t.Fatalf("makespan diverged: warm %s, cold %s",
							warm.makespan.RatString(), coldRes.makespan.RatString())
					}
					if coldRes.warmHits != 0 {
						t.Fatalf("cold run reported %d warm hits; NoWarmStart must disable the restore", coldRes.warmHits)
					}
					totalWarmHits.Add(warm.warmHits)
				})
			}
		}
	}
	t.Cleanup(func() {
		if totalWarmHits.Load() == 0 {
			t.Errorf("no warm-restore prune fired across any family; the parity test is vacuous")
		}
	})
}
