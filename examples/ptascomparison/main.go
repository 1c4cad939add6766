// PTAS comparison: the accuracy/cost trade-off of the splittable
// approximation scheme. As ε shrinks, the configuration N-fold grows
// (the paper's n^{O(1/ε⁴ log 1/ε)} dependence) while the makespan
// approaches the optimum; the constant-factor algorithm is the fast
// baseline the schemes improve upon.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ccsched"
)

func main() {
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 16, Classes: 4, Machines: 3, Slots: 2, PMax: 60, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	lb, err := ccsched.LowerBound(in, ccsched.Splittable)
	if err != nil {
		log.Fatal(err)
	}
	lf, _ := lb.Float64()
	exact, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierExact})
	optKnown := err == nil
	fmt.Printf("splittable instance: n=%d C=%d m=%d c=%d, lower bound %.2f", in.N(), in.NumClasses(), in.M, in.Slots, lf)
	if optKnown {
		of, _ := exact.Makespan.Float64()
		fmt.Printf(", optimum %.2f", of)
	}
	fmt.Println()
	fmt.Println()
	fmt.Printf("%-14s %10s %10s %12s %10s\n", "algorithm", "makespan", "ratio", "nfold vars", "time")

	start := time.Now()
	a, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierApprox})
	if err != nil {
		log.Fatal(err)
	}
	af, _ := a.Makespan.Float64()
	fmt.Printf("%-14s %10.2f %10.3f %12s %10s\n",
		"2-approx", af, af/lf, "-", time.Since(start).Round(time.Microsecond))

	for _, eps := range []float64{1.0, 0.5} {
		start := time.Now()
		res, err := ccsched.Solve(context.Background(), in, ccsched.Options{
			Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: eps,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := res.CompactSplit.Validate(in); err != nil {
			log.Fatal(err)
		}
		mf, _ := res.Makespan.Float64()
		fmt.Printf("%-14s %10.2f %10.3f %12d %10s\n",
			fmt.Sprintf("PTAS ε=%.2f", eps), mf, mf/lf,
			res.Report.NFold.Vars, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Println("The N-fold variable count is the paper's running-time currency: it")
	fmt.Println("grows combinatorially with 1/ε. At implementable ε the scheme's")
	fmt.Println("(1+O(δ)) constants exceed the 2-approximation, so the best-of floor")
	fmt.Println("returns the 2-approximation schedule — the asymptotic regime where")
	fmt.Println("the PTAS wins is exactly what the paper's running-time bounds price in.")
}
