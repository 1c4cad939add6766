// Quickstart: build a small class-constrained scheduling instance by hand
// and solve it with all three variants' 2- and 7/3-approximations, plus the
// non-preemptive PTAS, printing makespans against the certified lower
// bounds.
package main

import (
	"context"
	"fmt"
	"log"

	"ccsched"
)

func main() {
	// Eight jobs in three classes, two machines, two class slots each.
	in := &ccsched.Instance{
		P:     []int64{9, 7, 6, 5, 4, 4, 3, 2},
		Class: []int{0, 1, 0, 2, 1, 2, 0, 1},
		M:     2,
		Slots: 2,
	}
	if err := ccsched.CheckFeasible(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: n=%d jobs, C=%d classes, m=%d machines, c=%d slots\n\n",
		in.N(), in.NumClasses(), in.M, in.Slots)

	for _, v := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		lb, err := ccsched.LowerBound(in, v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s lower bound %s\n", v.String()+":", lb.RatString())
	}
	fmt.Println()

	s, err := ccsched.ApproxSplittable(in)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Compact.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("splittable 2-approx:     makespan %s (%d machine groups)\n",
		s.Makespan().RatString(), len(s.Compact.Groups))

	p, err := ccsched.ApproxPreemptive(in)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Schedule.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preemptive 2-approx:     makespan %s (%d pieces, repacked=%v)\n",
		p.Makespan().RatString(), p.Schedule.PieceCount(), p.Repacked)

	np, err := ccsched.ApproxNonPreemptive(in)
	if err != nil {
		log.Fatal(err)
	}
	if err := np.Schedule.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-preemptive 7/3-approx: makespan %d\n", np.Makespan(in))

	res, err := ccsched.Solve(context.Background(), in, ccsched.Options{
		Variant: ccsched.NonPreemptive, Tier: ccsched.TierPTAS, Epsilon: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.NonPreemptive.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-preemptive PTAS ε=.5:  makespan %s (engine %s)\n",
		res.Makespan.RatString(), res.Report.Engine)

	_, opt, err := ccsched.ExactNonPreemptive(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-preemptive optimum:    makespan %d\n", opt)
}
