// Data placement: the paper's motivating scenario. Operations (jobs) need
// access to a database (class); databases must be stored locally, but each
// server (machine) has disk space for only c databases. Popularity is
// Zipf-skewed — a few hot databases attract most operations — which is the
// "zipf" workload family.
//
// The example compares the splittable 2-approximation (operations can be
// sharded across replicas) with the preemptive one (an operation can
// migrate but not run twice in parallel) over a server-count sweep.
package main

import (
	"context"
	"fmt"
	"log"

	"ccsched"
)

func main() {
	fmt.Println("data placement: 400 operations over 24 databases, 3 DB slots per server")
	fmt.Println()
	fmt.Printf("%8s  %12s  %12s  %12s  %8s\n", "servers", "lower bound", "splittable", "preemptive", "ratio")
	for _, m := range []int64{4, 8, 16, 32} {
		in, err := ccsched.Generate("zipf", ccsched.GeneratorConfig{
			N: 400, Classes: 24, Machines: m, Slots: 3, PMax: 1000, Seed: 2024,
		})
		if err != nil {
			log.Fatal(err)
		}
		s, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierApprox})
		if err != nil {
			log.Fatal(err)
		}
		if err := s.CompactSplit.Validate(in); err != nil {
			log.Fatal(err)
		}
		p, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.Preemptive, Tier: ccsched.TierApprox})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Preemptive.Validate(in); err != nil {
			log.Fatal(err)
		}
		sf, _ := s.Makespan.Float64()
		lf, _ := s.LowerBound.Float64()
		pf, _ := p.Makespan.Float64()
		fmt.Printf("%8d  %12.1f  %12.1f  %12.1f  %8.3f\n", m, lf, sf, pf, sf/lf)
	}
	fmt.Println()
	fmt.Println("Doubling the servers halves the makespan until the hot databases'")
	fmt.Println("class-slot bound takes over — the crossover the paper's class")
	fmt.Println("constraints introduce versus plain makespan scheduling.")
}
