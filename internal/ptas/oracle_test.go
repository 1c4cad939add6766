package ptas

import (
	"fmt"
	"math/rand"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// groupJobsOracle is groupJobs as it was before it sliced a per-guess
// array: every bundle's job list is a fresh slice.
func groupJobsOracle(in *core.Instance, jobs []int, g, t int64) ([]npJob, bool) {
	var big_, small []int
	for _, j := range jobs {
		if in.P[j]*g > t {
			big_ = append(big_, j)
		} else {
			small = append(small, j)
		}
	}
	var packets []npJob
	cur := npJob{}
	for _, j := range small {
		cur.orig = append(cur.orig, j)
		cur.load += in.P[j]
		if cur.load*g > t { // reached δT
			packets = append(packets, cur)
			cur = npJob{}
		}
	}
	out := make([]npJob, 0, len(big_)+len(packets)+1)
	for _, j := range big_ {
		out = append(out, npJob{orig: []int{j}, load: in.P[j]})
	}
	out = append(out, packets...)
	if len(cur.orig) > 0 {
		if len(out) > 0 {
			out[0].orig = append(out[0].orig, cur.orig...)
			out[0].load += cur.load
		} else {
			return []npJob{cur}, true
		}
	}
	return out, false
}

// TestGroupJobsMatchesOracle holds groupJobs to the oracle on every family
// and on random classes, at guesses that make every job big, none, and the
// mixes between; it also checks that appending to one bundle's job list
// cannot reach into the next bundle's.
func TestGroupJobsMatchesOracle(t *testing.T) {
	var ins []*core.Instance
	for _, fam := range generator.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			ins = append(ins, fam.Gen(generator.Config{N: 60, Classes: 6, Machines: 4, Slots: 2, PMax: 100, Seed: seed}))
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		in := &core.Instance{M: 3, Slots: 2}
		for j := rng.Intn(30); j >= 0; j-- {
			in.P = append(in.P, 1+rng.Int63n(50))
			in.Class = append(in.Class, rng.Intn(4))
		}
		ins = append(ins, in)
	}
	for i, in := range ins {
		ix := core.NewClassIndex(in, core.NonPreemptive)
		for _, g := range []int64{1, 2, 4} {
			for _, tt := range []int64{1, 7, 30, 99, 200, 5000} {
				buf := make([]int, in.N())
				for u, jobs := range ix.Jobs {
					if len(jobs) == 0 {
						continue
					}
					got, gotSmall, rest := groupJobs(in, jobs, g, tt, buf)
					want, wantSmall := groupJobsOracle(in, jobs, g, tt)
					if fmt.Sprint(got) != fmt.Sprint(want) || gotSmall != wantSmall {
						t.Fatalf("instance %d class %d g=%d t=%d: %v small=%v, oracle %v small=%v", i, u, g, tt, got, gotSmall, want, wantSmall)
					}
					for _, gj := range got {
						_ = append(gj.orig, -1)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("instance %d class %d: appending to one bundle's jobs changed another's", i, u)
					}
					buf = rest
				}
				if len(buf) != 0 {
					t.Fatalf("instance %d: %d of the per-guess array unused", i, len(buf))
				}
			}
		}
	}
}
