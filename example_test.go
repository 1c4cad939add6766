package ccsched_test

import (
	"context"
	"fmt"
	"time"

	"ccsched"
)

// ExampleSolve runs the unified context-aware entry point: variant and
// tier come from Options, and the deadline cancels the solve down to the
// ILP iteration.
func ExampleSolve() {
	in := &ccsched.Instance{
		P:     []int64{9, 7, 6, 5, 4, 4, 3, 2},
		Class: []int{0, 1, 0, 2, 1, 2, 0, 1},
		M:     2,
		Slots: 2,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := ccsched.Solve(ctx, in, ccsched.Options{
		Variant: ccsched.NonPreemptive,
		Tier:    ccsched.TierPTAS,
		Epsilon: 0.5,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("makespan:", res.Makespan.RatString())
	fmt.Println("lower bound:", res.LowerBound.RatString())
	// Output:
	// makespan: 27
	// lower bound: 20
}

// ExampleSolve_approxNonPreemptive schedules a small instance with the
// paper's 7/3-approximation and prints the makespan.
func ExampleSolve_approxNonPreemptive() {
	in := &ccsched.Instance{
		P:     []int64{4, 3, 5, 2},
		Class: []int{0, 0, 1, 1},
		M:     2,
		Slots: 1, // machines host one class each
	}
	res, err := ccsched.Solve(context.Background(), in, ccsched.Options{
		Variant: ccsched.NonPreemptive,
		Tier:    ccsched.TierApprox,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("makespan:", res.Makespan.RatString())
	// Output: makespan: 7
}

// ExampleSolve_approxSplittable shows that splitting drops the makespan to
// the area bound when slots allow it.
func ExampleSolve_approxSplittable() {
	in := &ccsched.Instance{
		P:     []int64{100},
		Class: []int{0},
		M:     4,
		Slots: 1,
	}
	res, err := ccsched.Solve(context.Background(), in, ccsched.Options{
		Variant: ccsched.Splittable,
		Tier:    ccsched.TierApprox,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("makespan:", res.Makespan.RatString())
	// Output: makespan: 25
}

// ExampleLowerBound certifies a bound the optimal makespan cannot beat.
func ExampleLowerBound() {
	in := &ccsched.Instance{
		P:     []int64{30},
		Class: []int{0},
		M:     3,
		Slots: 1,
	}
	lb, err := ccsched.LowerBound(in, ccsched.Splittable)
	if err != nil {
		panic(err)
	}
	fmt.Println("lower bound:", lb.RatString())
	// Output: lower bound: 10
}

// ExampleParseInstance reads the textual instance format.
func ExampleParseInstance() {
	in, err := ccsched.ParseInstance(`
machines 2
slots 1
job 6 0
job 4 1
`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d C=%d m=%d\n", in.N(), in.NumClasses(), in.M)
	// Output: n=2 C=2 m=2
}

// ExampleCheckFeasible demonstrates the C ≤ c·m feasibility condition.
func ExampleCheckFeasible() {
	in := &ccsched.Instance{
		P:     []int64{1, 1, 1},
		Class: []int{0, 1, 2},
		M:     1,
		Slots: 2, // three classes, two total slots: impossible
	}
	fmt.Println(ccsched.CheckFeasible(in))
	// Output: core: more classes than total class slots (C > c*m)
}
