package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ccsched/internal/rat"
)

// randomInstance draws n jobs over up to classes classes (some possibly
// empty) with processing times in [1, pmax].
func randomInstance(rng *rand.Rand, n, classes int, pmax int64) *Instance {
	in := &Instance{M: 1 + rng.Int63n(40), Slots: 1 + rng.Intn(4)}
	for j := 0; j < n; j++ {
		in.P = append(in.P, 1+rng.Int63n(pmax))
		in.Class = append(in.Class, rng.Intn(classes))
	}
	return in
}

// TestClassIndexMatchesScans checks every field of the index against the
// per-reader scans it replaces: ClassJobs, ClassLoads, PMax, TotalLoad and
// a stable sort of each class by non-increasing processing time.
func TestClassIndexMatchesScans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		in := randomInstance(rng, rng.Intn(50), 1+rng.Intn(12), []int64{3, 100, 1 << 40}[trial%3])
		ix := NewClassIndex(in, NonPreemptive)
		if ix.NumClasses() != in.NumClasses() || ix.PMax != in.PMax() || ix.Total != in.TotalLoad() {
			t.Fatalf("trial %d: classes/pmax/total %d/%d/%d, want %d/%d/%d", trial,
				ix.NumClasses(), ix.PMax, ix.Total, in.NumClasses(), in.PMax(), in.TotalLoad())
		}
		if !slices.Equal(ix.Loads, in.ClassLoads()) {
			t.Fatalf("trial %d: loads %v, want %v", trial, ix.Loads, in.ClassLoads())
		}
		nonEmpty := 0
		for u, jobs := range in.ClassJobs() {
			if !slices.Equal(ix.Jobs[u], jobs) {
				t.Fatalf("trial %d class %d: jobs %v, want %v", trial, u, ix.Jobs[u], jobs)
			}
			if len(jobs) > 0 {
				nonEmpty++
			}
			byP := slices.Clone(jobs)
			slices.SortStableFunc(byP, func(a, b int) int { return cmp.Compare(in.P[b], in.P[a]) })
			if !slices.Equal(ix.ByP[u], byP) {
				t.Fatalf("trial %d class %d: by p %v, want %v", trial, u, ix.ByP[u], byP)
			}
			for i, j := range byP {
				if ix.PByP[u][i] != in.P[j] {
					t.Fatalf("trial %d class %d: p by p %v", trial, u, ix.PByP[u])
				}
			}
		}
		if ix.NonEmpty != nonEmpty {
			t.Fatalf("trial %d: %d non-empty classes, want %d", trial, ix.NonEmpty, nonEmpty)
		}
		if NewClassIndex(in, Splittable).ByP != nil {
			t.Fatal("a splittable index holds the non-preemptive orders")
		}
	}
}

// TestClassIndexListsDoNotAlias appends to one class's job list and checks
// the next class's list, which follows it in the shared backing array, is
// unchanged.
func TestClassIndexListsDoNotAlias(t *testing.T) {
	in := &Instance{P: []int64{1, 2, 3, 4, 5}, Class: []int{0, 1, 0, 1, 2}, M: 2, Slots: 2}
	ix := NewClassIndex(in, NonPreemptive)
	for _, lists := range [][][]int{ix.Jobs, ix.ByP} {
		next := slices.Clone(lists[1])
		_ = append(lists[0], 99, 98)
		if !slices.Equal(lists[1], next) {
			t.Fatalf("appending to class 0 changed class 1: %v, want %v", lists[1], next)
		}
	}
	next := slices.Clone(ix.PByP[1])
	_ = append(ix.PByP[0], 99)
	if !slices.Equal(ix.PByP[1], next) {
		t.Fatalf("appending to class 0 changed class 1's processing times")
	}
}

// TestClassIndexScaled checks the scaled index is the index of the scaled
// instance.
func TestClassIndexScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng, 1+rng.Intn(30), 1+rng.Intn(6), 1000)
		for _, v := range Variants {
			got := NewClassIndex(in, v).Scaled(8)
			want := NewClassIndex(got.In, v)
			want.In = got.In
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: scaled index %+v, want %+v", trial, v, got, want)
			}
			if in.P[0] == got.In.P[0] {
				t.Fatal("Scaled changed or shared the original instance")
			}
		}
	}
}

// TestSlotLowerBoundSplitSmallClassBelowKmaxBorder pins a case where the
// bound lies below max_u P_u/m: loads 100 and 30 on m = 2 machines with
// c = 3 slots. The large class's smallest allowed border is 100/2, but the
// small class's border 30 is feasible (⌈100/30⌉ + 1 = 5 ≤ 6 slots).
func TestSlotLowerBoundSplitSmallClassBelowKmaxBorder(t *testing.T) {
	in := &Instance{P: []int64{100, 30}, Class: []int{0, 1}, M: 2, Slots: 3}
	got, err := SlotLowerBoundSplitR(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := slotLowerBoundSplitOracle(in); !got.Equal(want) || !got.Equal(rat.FromInt(30)) {
		t.Fatalf("bound %s, oracle %s, want 30", got.RatString(), want.RatString())
	}
}

// TestSlotLowerBoundNonPreemptiveMatchesOracle holds the windowed
// non-preemptive bound to the full binary search, on random instances
// whose jobs are mostly big and mid at the bound (few jobs per class, tight
// budgets) as well as mostly small.
func TestSlotLowerBoundNonPreemptiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		in := randomInstance(rng, n, 1+rng.Intn(n), []int64{5, 60, 1000, 1 << 40}[trial%4])
		if trial%7 == 0 {
			in.M = 1 << (30 + rng.Intn(30))
		}
		if CheckFeasible(in) != nil {
			continue
		}
		got, err := SlotLowerBoundNonPreemptive(in)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := slotLowerBoundNonPreemptiveOracle(in); got != want {
			t.Fatalf("trial %d %+v: bound %d, oracle %d", trial, in, got, want)
		}
	}
	// Equal jobs in one or two classes: when they outnumber twice the
	// slots, the bound lies between 2·p_max and 3·p_max, where the jobs
	// above T/3 decide it.
	for n := 1; n <= 40; n++ {
		for m := int64(1); m <= 8; m++ {
			for c := 1; c <= 3; c++ {
				in := &Instance{M: m, Slots: c}
				for j := 0; j < n; j++ {
					in.P = append(in.P, 7)
					in.Class = append(in.Class, j%(1+n%2))
				}
				if CheckFeasible(in) != nil {
					continue
				}
				got, _ := SlotLowerBoundNonPreemptive(in)
				if want, _ := slotLowerBoundNonPreemptiveOracle(in); got != want {
					t.Fatalf("%d equal jobs, m=%d c=%d: bound %d, oracle %d", n, m, c, got, want)
				}
			}
		}
	}
	empty := &Instance{M: 3, Slots: 1}
	if got, _ := SlotLowerBoundNonPreemptive(empty); got != 1 {
		t.Fatalf("empty instance: bound %d, want 1", got)
	}
}

// TestFromSplitMatchesOracle holds the two-pass FromSplit to the map-based
// one, byte for byte in JSON and value for value: dense, sparse and huge
// machine ids, and the empty schedule.
func TestFromSplitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 1000; trial++ {
		s := &SplitSchedule{}
		spread := []int64{3, 50, 1 << 20, 1 << 62}[trial%4]
		for k := rng.Intn(40); k > 0; k-- {
			s.Pieces = append(s.Pieces, SplitPiece{
				Job: rng.Intn(20), Machine: rng.Int63n(spread), Size: rat.Frac(1+rng.Int63n(100), 1+rng.Int63n(7)),
			})
		}
		got, want := FromSplit(s), fromSplitOracle(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: groups %+v, oracle %+v", trial, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("trial %d: JSON %s, oracle %s", trial, gj, wj)
		}
		for _, g := range got.Groups {
			if len(g.Pieces) != cap(g.Pieces) {
				t.Fatalf("trial %d: group pieces not capacity-capped", trial)
			}
		}
	}
}
