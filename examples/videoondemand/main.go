// Video on demand: the class-constrained packing application of Xavier and
// Miyazawa. Movies (classes) are striped onto disks (machines); each disk
// can hold at most c movies, and each viewing request (job) must be served
// from a disk storing its movie. Minimizing the peak disk load is the
// non-preemptive CCS problem.
//
// The example contrasts the 7/3-approximation with the exact optimum on a
// small catalog and with the certified lower bound on a large one.
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"

	"ccsched"
)

// solve runs one non-preemptive tier and validates the assignment.
func solve(in *ccsched.Instance, tier ccsched.Tier) *ccsched.Result {
	res, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.NonPreemptive, Tier: tier})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.NonPreemptive.Validate(in); err != nil {
		log.Fatal(err)
	}
	return res
}

// ratio is a/b as a float.
func ratio(a, b *big.Rat) float64 {
	f, _ := new(big.Rat).Quo(a, b).Float64()
	return f
}

func main() {
	fmt.Println("video on demand: requests must be served from disks storing the movie")
	fmt.Println()

	// Small catalog: exact optimum is computable.
	small := &ccsched.Instance{
		// Requests per movie: blockbuster (class 0) dominates.
		P:     []int64{9, 8, 7, 4, 3, 3, 2, 2},
		Class: []int{0, 0, 0, 1, 1, 2, 2, 3},
		M:     3,
		Slots: 2,
	}
	res := solve(small, ccsched.TierApprox)
	opt := solve(small, ccsched.TierExact)
	fmt.Printf("small catalog (n=%d, movies=%d, disks=%d, slots=%d):\n",
		small.N(), small.NumClasses(), small.M, small.Slots)
	fmt.Printf("  7/3-approximation: peak load %s\n", res.Makespan.RatString())
	fmt.Printf("  exact optimum:     peak load %s\n", opt.Makespan.RatString())
	fmt.Printf("  true ratio:        %.3f (guarantee 7/3 ≈ 2.333)\n\n",
		ratio(res.Makespan, opt.Makespan))

	// Large catalog: compare against the certified lower bound.
	large, err := ccsched.Generate("fewlarge", ccsched.GeneratorConfig{
		N: 1000, Classes: 50, Machines: 20, Slots: 4, PMax: 500, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	lres := solve(large, ccsched.TierApprox)
	lf, _ := lres.LowerBound.Float64()
	fmt.Printf("large catalog (n=%d, movies=%d, disks=%d, slots=%d):\n",
		large.N(), large.NumClasses(), large.M, large.Slots)
	fmt.Printf("  7/3-approximation: peak load %s\n", lres.Makespan.RatString())
	fmt.Printf("  lower bound:       %.1f\n", lf)
	fmt.Printf("  ratio vs LB:       %.3f\n", ratio(lres.Makespan, lres.LowerBound))
}
