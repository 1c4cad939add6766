// Parallelsolve: the unified context-aware Solve API end to end — several
// independent PTAS solves run concurrently under one deadline and share one
// feasibility cache, then run again and answer every guess probe from it.
// A single solve runs on its calling goroutine; concurrent solves are how a
// caller puts more cores to work.
//
// Run with:
//
//	go run ./examples/parallelsolve
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"ccsched"
)

// outcome is one solve's answer.
type outcome struct {
	res *ccsched.Result
	err error
}

// solveAll solves every instance on its own goroutine and returns the
// answers in instance order.
func solveAll(ctx context.Context, ins []*ccsched.Instance, opts ccsched.Options) []outcome {
	out := make([]outcome, len(ins))
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ccsched.Solve(ctx, in, opts)
			if err == nil {
				err = res.CompactSplit.Validate(in)
			}
			out[i] = outcome{res, err}
		}()
	}
	wg.Wait()
	return out
}

func main() {
	// Video-on-demand-shaped workloads: Zipf-popular movies (classes)
	// across 5 servers with 3 content slots each, one per seed.
	var ins []*ccsched.Instance
	for seed := int64(41); seed <= 44; seed++ {
		in, err := ccsched.Generate("zipf", ccsched.GeneratorConfig{
			N: 60, Classes: 12, Machines: 5, Slots: 3, PMax: 500, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		ins = append(ins, in)
	}
	fmt.Printf("%d instances: n=60 jobs, C=12 classes, m=5 machines, c=3 slots\n\n", len(ins))

	// A deadline bounds every solve: cancellation reaches the ILP engines
	// at iteration boundaries, so even a mid-ILP solve stops within one
	// augmentation iteration or branch-and-bound node.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// One cache, safe for concurrent solves. Leaving Options.Cache nil
	// shares the process-wide default cache the same way.
	opts := ccsched.Options{
		Variant:  ccsched.Splittable,
		Tier:     ccsched.TierPTAS,
		Epsilon:  0.5,
		Cache:    ccsched.NewFeasibilityCache(),
		MaxNodes: 300, // bound each probe's exact engine
	}

	start := time.Now()
	cold := solveAll(ctx, ins, opts)
	coldTime := time.Since(start)
	for i, o := range cold {
		if o.err != nil {
			log.Fatal(o.err) // a missed deadline surfaces as context.DeadlineExceeded
		}
		fmt.Printf("cold %d: makespan %s, lower bound %s, %d guess probes (engine %s)\n",
			i, o.res.Makespan.RatString(), o.res.LowerBound.RatString(), o.res.Report.Guesses, o.res.Report.Engine)
	}
	fmt.Printf("cold batch: %s\n\n", coldTime.Round(time.Millisecond))

	// The same batch again: every guess verdict is memoized, so no ILP is
	// solved again and every makespan repeats.
	start = time.Now()
	warm := solveAll(ctx, ins, opts)
	warmTime := time.Since(start)
	for i, o := range warm {
		if o.err != nil {
			log.Fatal(o.err)
		}
		fmt.Printf("warm %d: makespan %s (identical: %v), %d cache hits\n",
			i, o.res.Makespan.RatString(), o.res.Makespan.Cmp(cold[i].res.Makespan) == 0, o.res.Report.CacheHits)
	}
	fmt.Printf("warm batch: %s\n", warmTime.Round(time.Millisecond))
}
