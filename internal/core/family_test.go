package core_test

import (
	"fmt"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// boundShapes are the machine and slot shapes the slot bounds are held to
// their oracles on: each takes a generated instance and reshapes it.
var boundShapes = []struct {
	name  string
	cfg   generator.Config
	shape func(in *core.Instance)
}{
	{"m<C", generator.Config{N: 40, Classes: 20, Machines: 5, Slots: 1}, nil},
	{"c=1", generator.Config{N: 40, Classes: 8, Machines: 12, Slots: 1}, nil},
	{"one-class", generator.Config{N: 30, Classes: 1, Machines: 6, Slots: 2}, nil},
	// B = C′: exactly one slot per non-empty class.
	{"B=C'", generator.Config{N: 40, Classes: 12, Machines: 12, Slots: 1}, func(in *core.Instance) {
		in.M, in.Slots = int64(nonEmpty(in)), 1
	}},
	// One class far larger than the rest with c > 1, so its border search
	// hits k = kmax = m before the slot budget.
	{"one-huge-class", generator.Config{N: 40, Classes: 8, Machines: 4, Slots: 3}, func(in *core.Instance) {
		for j := range in.P {
			if in.Class[j] == 0 {
				in.P[j] *= 1000
			}
		}
	}},
	{"m=2^40", generator.Config{N: 40, Classes: 10, Machines: 1 << 40, Slots: 2}, nil},
}

func nonEmpty(in *core.Instance) int {
	n := 0
	for _, pu := range in.ClassLoads() {
		if pu > 0 {
			n++
		}
	}
	return n
}

// TestSlotBoundsMatchOraclesOnFamilies holds the windowed splittable slot
// bound and the non-preemptive slot bound to their oracles, the per-class
// binary search and the fresh-lists binary search, on every family and
// shape.
func TestSlotBoundsMatchOraclesOnFamilies(t *testing.T) {
	for _, fam := range generator.Families() {
		for _, sh := range boundShapes {
			for seed := int64(1); seed <= 8; seed++ {
				cfg := sh.cfg
				cfg.Seed, cfg.PMax = seed, []int64{10, 1000, 1 << 30}[seed%3]
				in := fam.Gen(cfg)
				if sh.shape != nil {
					sh.shape(in)
				}
				name := fmt.Sprintf("%s/%s/seed=%d", fam.Name, sh.name, seed)
				if core.CheckFeasible(in) != nil {
					t.Fatalf("%s: infeasible draw", name)
				}
				got, err := core.SlotLowerBoundSplitR(in)
				if err != nil {
					t.Fatal(err)
				}
				if want := core.SlotLowerBoundSplitOracle(in); !got.Equal(want) {
					t.Errorf("%s: split bound %s, oracle %s", name, got.RatString(), want.RatString())
				}
				np, err := core.SlotLowerBoundNonPreemptive(in)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := core.SlotLowerBoundNonPreemptiveOracle(in); np != want {
					t.Errorf("%s: non-preemptive bound %d, oracle %d", name, np, want)
				}
			}
		}
	}
}
