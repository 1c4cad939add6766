// Quickstart: build a small class-constrained scheduling instance by hand
// and solve it through ccsched.Solve with all three variants' 2- and
// 7/3-approximations, the non-preemptive PTAS and the exact optimum,
// printing makespans against the certified lower bounds.
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

	solve := func(v ccsched.Variant, tier ccsched.Tier) *ccsched.Result {
		res, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: v, Tier: tier, Epsilon: 0.5})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	s := solve(ccsched.Splittable, ccsched.TierApprox)
	if err := s.CompactSplit.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("splittable 2-approx:     makespan %s (%d machine groups)\n",
		s.Makespan.RatString(), len(s.CompactSplit.Groups))

	p := solve(ccsched.Preemptive, ccsched.TierApprox)
	if err := p.Preemptive.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preemptive 2-approx:     makespan %s (%d pieces)\n",
		p.Makespan.RatString(), p.Preemptive.PieceCount())

	np := solve(ccsched.NonPreemptive, ccsched.TierApprox)
	if err := np.NonPreemptive.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-preemptive 7/3-approx: makespan %s\n", np.Makespan.RatString())

	res := solve(ccsched.NonPreemptive, ccsched.TierPTAS)
	if err := res.NonPreemptive.Validate(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-preemptive PTAS ε=.5:  makespan %s (engine %s)\n",
		res.Makespan.RatString(), res.Report.Engine)

	opt := solve(ccsched.NonPreemptive, ccsched.TierExact)
	fmt.Printf("non-preemptive optimum:    makespan %s\n", opt.Makespan.RatString())
}
