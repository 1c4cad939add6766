package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ccsched/internal/rat"
)

func TestCheckFeasible(t *testing.T) {
	ok := &Instance{P: []int64{1, 1, 1}, Class: []int{0, 1, 2}, M: 3, Slots: 1}
	if err := CheckFeasible(ok); err != nil {
		t.Errorf("CheckFeasible(ok) = %v", err)
	}
	bad := &Instance{P: []int64{1, 1, 1}, Class: []int{0, 1, 2}, M: 2, Slots: 1}
	if err := CheckFeasible(bad); err == nil {
		t.Error("CheckFeasible should reject C > c*m")
	}
	huge := &Instance{P: []int64{1, 1}, Class: []int{0, 1}, M: 1 << 60, Slots: 1}
	if err := CheckFeasible(huge); err != nil {
		t.Errorf("huge m must not overflow: %v", err)
	}
}

func TestSlotsNeededSplit(t *testing.T) {
	cases := []struct {
		pu   int64
		t    int64
		want int64
	}{
		{10, 10, 1}, {10, 9, 2}, {10, 5, 2}, {10, 3, 4}, {1, 100, 1},
	}
	for _, tc := range cases {
		if got := rat.CeilQuoInt(tc.pu, rat.FromInt(tc.t)); got != tc.want {
			t.Errorf("CeilQuoInt(%d, %d) = %d, want %d", tc.pu, tc.t, got, tc.want)
		}
	}
	// Fractional threshold: ⌈10 / (7/2)⌉ = ⌈20/7⌉ = 3.
	if got := rat.CeilQuoInt(10, rat.Frac(7, 2)); got != 3 {
		t.Errorf("CeilQuoInt(10, 7/2) = %d, want 3", got)
	}
}

func TestSlotLowerBoundSplitSimple(t *testing.T) {
	// One class of total load 30, m=3 machines with 1 slot each:
	// T >= 10 is needed so the class fits into 3 slots.
	in := &Instance{P: []int64{30}, Class: []int{0}, M: 3, Slots: 1}
	got, err := SlotLowerBoundSplit(in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(RatInt(10)) != 0 {
		t.Errorf("SlotLowerBoundSplit = %s, want 10", got.RatString())
	}
}

func TestSlotLowerBoundSplitMultiClass(t *testing.T) {
	// Two classes, loads 12 and 6; m=2, c=2 => 4 slots.
	// At T=4: 3+2 = 5 > 4 infeasible; at T=6: 2+1 = 3 <= 4 feasible.
	// Minimal feasible border: 12/3 = 4 gives 3+2=5 infeasible. T=6/1=6 ok,
	// 12/2=6 ok, what about 12/2=6 vs 6/1=6: answer must be <= 6. Check 4.8?
	// borders: 12/1..12/k, 6/1..6/k. T=12/3=4 infeasible, T=6 feasible.
	// Intermediate border 6/1=6 only. So bound = 6? But also T=12/2=6.
	in := &Instance{P: []int64{12, 6}, Class: []int{0, 1}, M: 2, Slots: 2}
	got, err := SlotLowerBoundSplit(in)
	if err != nil {
		t.Fatal(err)
	}
	// The minimal feasible border: try T = 12/2 = 6 -> 2+1=3 <= 4 ok;
	// next smaller border 6/1=6 same; 12/3=4 -> 3+2=5 infeasible;
	// 6/2=3 -> 4+2=6 infeasible. Hence 6... but is T=5 (not a border)
	// feasible? ceil(12/5)+ceil(6/5)=3+2=5 > 4 infeasible, consistent.
	if got.Cmp(RatInt(6)) != 0 {
		t.Errorf("SlotLowerBoundSplit = %s, want 6", got.RatString())
	}
}

func TestSlotLowerBoundSplitInfeasible(t *testing.T) {
	in := &Instance{P: []int64{1, 1, 1}, Class: []int{0, 1, 2}, M: 1, Slots: 2}
	if _, err := SlotLowerBoundSplit(in); err == nil {
		t.Error("want ErrInfeasible")
	}
}

func TestNonPreemptiveClassSlots(t *testing.T) {
	// T = 12. Jobs: 7 (big, >6), 5 (mid, >4), 4 (mid?, 3*4=12 !> 12 so not mid).
	// big = [7], mid = [5]; greedy: 7+5 = 12 <= 12 fits, ell = 0.
	// C2 = 1, C1 = ceil(16/12) = 2 => 2.
	ps := []int64{7, 5, 4}
	if got := NonPreemptiveClassSlots(ps, 16, 12); got != 2 {
		t.Errorf("slots = %d, want 2", got)
	}
	// T = 10: big = 7(>5), mid = 5(>10/3), 4(>10/3). 7+5=12 > 10, 7+4=11 > 10:
	// nothing fits on the 7. ell = 2 => C2 = 1 + 1 = 2; C1 = ceil(16/10) = 2.
	if got := NonPreemptiveClassSlots(ps, 16, 10); got != 2 {
		t.Errorf("slots = %d, want 2", got)
	}
	// T = 8: big = 7,5; mid = 4(3*4>8); 7+4>8, 5+4>8... 5 is big (2*5>8).
	// big=[7,5], mid=[4]: 5+4=9>8 and 7+4=11>8, ell=1 => C2 = 2+1 = 3.
	// C1 = ceil(16/8) = 2 => 3.
	if got := NonPreemptiveClassSlots(ps, 16, 8); got != 3 {
		t.Errorf("slots = %d, want 3", got)
	}
}

func TestNonPreemptiveClassSlotsGreedyIsMaximum(t *testing.T) {
	// Regression for the pairing order: bigs 9, 6 with T=15 leave caps 6, 9;
	// mids 8, 6 (both in (5, 7.5]). Wait: mid range is (T/3, T/2] = (5, 7.5].
	// Use mids 7, 6. Cap of big 9 is 6, cap of big 6 is 9. Maximum matching
	// pairs 7 with big 6 and 6 with big 9 => ell = 0, C2 = 2.
	// A wrong order (big 9 first taking 6? no - largest fitting for cap 6 is 6,
	// then big 6 takes 7) also gets 2; build a case that actually
	// discriminates: caps 4, 9 (bigs 11, 6? 11 > 15... use T=15, bigs 11 is
	// > 15/2; caps: 15-11=4, 15-6=9). mids: 6, 7 (in (5, 7.5]).
	// cap 4 fits nothing; cap 9 fits 7. Max matching = 1, ell = 1, C2 = 2+1 = 3.
	ps := []int64{11, 8, 7, 6}
	// big: 11, 8 (2*8=16>15); mid: 7, 6 (3*6=18>15, 6 <= 7.5).
	// caps: 15-11=4, 15-8=7. cap 7 fits 7 and 6 -> takes 7; cap 4 fits none.
	// ell = 1 -> C2 = 2 + 1 = 3. C1 = ceil(32/15) = 3. want 3.
	if got := NonPreemptiveClassSlots(ps, 32, 15); got != 3 {
		t.Errorf("slots = %d, want 3", got)
	}
}

func TestSlotLowerBoundNonPreemptive(t *testing.T) {
	// Three unit classes each with one job of size 10; m=3, c=1.
	in := &Instance{P: []int64{10, 10, 10}, Class: []int{0, 1, 2}, M: 3, Slots: 1}
	got, err := SlotLowerBoundNonPreemptive(in)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("bound = %d, want 10 (p_max)", got)
	}
}

func TestLowerBoundDominance(t *testing.T) {
	in := testInstance()
	for _, v := range Variants {
		lb, err := LowerBound(in, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		area := RatFrac(in.TotalLoad(), in.M)
		if lb.Cmp(area) < 0 {
			t.Errorf("%v: bound %s below area %s", v, lb.RatString(), area.RatString())
		}
		if v != Splittable && lb.Cmp(RatInt(in.PMax())) < 0 {
			t.Errorf("%v: bound %s below p_max", v, lb.RatString())
		}
	}
}

func TestLowerBoundOrdering(t *testing.T) {
	// Splittable optimum <= preemptive optimum <= non-preemptive optimum,
	// and our bounds should respect the same ordering on random instances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		in := &Instance{M: 1 + int64(rng.Intn(4)), Slots: 1 + rng.Intn(3)}
		cc := 1 + rng.Intn(4)
		for j := 0; j < n; j++ {
			in.P = append(in.P, 1+int64(rng.Intn(30)))
			in.Class = append(in.Class, rng.Intn(cc))
		}
		norm, _ := in.Normalize()
		if CheckFeasible(norm) != nil {
			return true // skip infeasible draws
		}
		s, err1 := LowerBound(norm, Splittable)
		p, err2 := LowerBound(norm, Preemptive)
		np, err3 := LowerBound(norm, NonPreemptive)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return s.Cmp(p) <= 0 && p.Cmp(np) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundInfeasible(t *testing.T) {
	in := &Instance{P: []int64{1, 1, 1, 1}, Class: []int{0, 1, 2, 3}, M: 1, Slots: 2}
	for _, v := range Variants {
		if _, err := LowerBound(in, v); err == nil {
			t.Errorf("%v: want infeasibility error", v)
		}
	}
}

// TestSlotLowerBoundSplitMatchesUnpruned checks the pruned border search
// returns exactly the unpruned search's bound, on random instances from one
// class to many, with tight and loose slot budgets and huge machine counts.
func TestSlotLowerBoundSplitMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		classes := 1 + rng.Intn(n)
		in := &Instance{M: 1 + rng.Int63n(40), Slots: 1 + rng.Intn(4)}
		if trial%10 == 0 {
			in.M = 1 << (40 + rng.Intn(20))
		}
		for j := 0; j < n; j++ {
			in.P = append(in.P, 1+rng.Int63n([]int64{5, 100, 1 << 40}[trial%3]))
			in.Class = append(in.Class, rng.Intn(classes))
		}
		if CheckFeasible(in) != nil {
			continue
		}
		got, err := SlotLowerBoundSplitR(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := slotLowerBoundSplitOracle(in); !got.Equal(want) {
			t.Fatalf("trial %d %+v: pruned bound %s, unpruned %s", trial, in, got.RatString(), want.RatString())
		}
	}
}

// nonPreemptiveClassSlotsOracle is the class-slot count built the direct
// way: copy the big and mid jobs out, then first-fit each big job (smallest
// first) with the largest unused mid job, marking used ones.
func nonPreemptiveClassSlotsOracle(ps []int64, pu, t int64) int64 {
	var big_, mid []int64
	for _, p := range ps {
		switch {
		case 2*p > t:
			big_ = append(big_, p)
		case 3*p > t:
			mid = append(mid, p)
		}
	}
	used := make([]bool, len(mid))
	for bi := len(big_) - 1; bi >= 0; bi-- {
		for i := range mid {
			if !used[i] && big_[bi]+mid[i] <= t {
				used[i] = true
				break
			}
		}
	}
	var ell int64
	for i := range mid {
		if !used[i] {
			ell++
		}
	}
	return max(RatCeilDiv(pu, t), int64(len(big_))+(ell+1)/2)
}

// TestNonPreemptiveClassSlotsMatchesOracle checks the single-cursor
// matching against the marked first-fit on random sorted classes and every
// makespan that moves a job across the T/2 or T/3 threshold.
func TestNonPreemptiveClassSlotsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 3000; trial++ {
		ps := make([]int64, rng.Intn(30))
		var pu int64
		for i := range ps {
			ps[i] = 1 + rng.Int63n([]int64{10, 60, 1000}[trial%3])
			pu += ps[i]
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a] > ps[b] })
		for _, tt := range []int64{1, 2, 3, 5, 10, 17, 30, 59, 60, 61, 100, 999, 2000} {
			if got, want := NonPreemptiveClassSlots(ps, pu, tt), nonPreemptiveClassSlotsOracle(ps, pu, tt); got != want {
				t.Fatalf("ps %v T %d: slots %d, oracle %d", ps, tt, got, want)
			}
		}
	}
}
