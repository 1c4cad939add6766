package approx

import (
	"math/big"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
	"ccsched/internal/rat"
)

// ratioAtMost reports whether makespan/lb <= bound (bound given as num/den).
func ratioAtMost(t *testing.T, name string, makespan, lb *big.Rat, num, den int64) {
	t.Helper()
	if lb.Sign() == 0 {
		t.Fatalf("%s: zero lower bound", name)
	}
	limit := core.RatMul(lb, core.RatFrac(num, den))
	if makespan.Cmp(limit) > 0 {
		ratio := new(big.Rat).Quo(makespan, lb)
		t.Errorf("%s: makespan %s exceeds %d/%d x LB %s (ratio %.4f)",
			name, makespan.RatString(), num, den, lb.RatString(), core.RatFloat(ratio))
	}
}

func testConfigs() []generator.Config {
	return []generator.Config{
		{N: 1, Classes: 1, Machines: 1, Slots: 1, Seed: 1},
		{N: 12, Classes: 3, Machines: 4, Slots: 2, PMax: 50, Seed: 2},
		{N: 40, Classes: 8, Machines: 5, Slots: 2, PMax: 100, Seed: 3},
		{N: 100, Classes: 15, Machines: 7, Slots: 3, PMax: 1000, Seed: 4},
		{N: 60, Classes: 30, Machines: 3, Slots: 12, PMax: 9, Seed: 5},
		{N: 25, Classes: 25, Machines: 10, Slots: 1, PMax: 64, Seed: 6},
	}
}

func TestSolveSplittableAcrossFamilies(t *testing.T) {
	for _, fam := range generator.Families() {
		for ci, cfg := range testConfigs() {
			in := fam.Gen(cfg)
			res, err := SolveSplittable(in)
			if err != nil {
				t.Fatalf("%s/%d: %v", fam.Name, ci, err)
			}
			if err := res.Compact.Validate(in); err != nil {
				t.Fatalf("%s/%d: invalid compact schedule: %v", fam.Name, ci, err)
			}
			if res.Explicit != nil {
				if err := res.Explicit.Validate(in); err != nil {
					t.Fatalf("%s/%d: invalid explicit schedule: %v", fam.Name, ci, err)
				}
			}
			lb, err := core.LowerBound(in, core.Splittable)
			if err != nil {
				t.Fatal(err)
			}
			ratioAtMost(t, fam.Name, res.Makespan(), lb, 2, 1)
		}
	}
}

func TestSolveSplittableGuessIsLowerBound(t *testing.T) {
	// The accepted guess max(LB, border) equals the certified lower bound,
	// so Guess <= OPT always holds.
	in := generator.Uniform(generator.Config{N: 50, Classes: 9, Machines: 6, Slots: 2, Seed: 8})
	res, err := SolveSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guess.Cmp(lb) != 0 {
		t.Errorf("Guess = %s, certified LB = %s", res.Guess.RatString(), lb.RatString())
	}
}

func TestSolveSplittableSingleJob(t *testing.T) {
	in := &core.Instance{P: []int64{100}, Class: []int{0}, M: 4, Slots: 1}
	res, err := SolveSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Compact.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Splittable optimum is 25: the single class splits onto all machines.
	if got := res.Makespan(); got.Cmp(core.RatInt(50)) > 0 {
		t.Errorf("makespan %s exceeds 2 x 25", got.RatString())
	}
}

func TestSolveSplittableInfeasible(t *testing.T) {
	in := &core.Instance{P: []int64{1, 1, 1}, Class: []int{0, 1, 2}, M: 1, Slots: 2}
	if _, err := SolveSplittable(in); err == nil {
		t.Error("want infeasibility error")
	}
}

func TestSolveSplittableHugeMachines(t *testing.T) {
	in := &core.Instance{
		P:     []int64{1000, 999, 500, 123, 77, 3},
		Class: []int{0, 1, 1, 2, 3, 3},
		M:     1 << 45,
		Slots: 1,
	}
	res, err := SolveSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explicit != nil {
		t.Error("huge m should use the compact path")
	}
	if err := res.Compact.Validate(in); err != nil {
		t.Fatalf("invalid compact schedule: %v", err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "huge-m", res.Makespan(), lb, 2, 1)
}

func TestCompactPathMatchesExplicitQuality(t *testing.T) {
	// Force the compact path on a moderate instance and compare against the
	// explicit path: both must be feasible and within ratio 2.
	in := generator.Uniform(generator.Config{N: 40, Classes: 6, Machines: 9, Slots: 2, PMax: 300, Seed: 17})
	explicit, err := SolveSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := SolveSplittableOpts(in, Options{ExplicitMachineLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if compact.Explicit != nil {
		t.Fatal("expected compact-only result")
	}
	if err := compact.Compact.Validate(in); err != nil {
		t.Fatalf("compact path invalid: %v", err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "explicit", explicit.Makespan(), lb, 2, 1)
	ratioAtMost(t, "compact", compact.Makespan(), lb, 2, 1)
}

func TestCompactExpandRoundTrip(t *testing.T) {
	in := generator.FewLargeClasses(generator.Config{N: 20, Classes: 4, Machines: 6, Slots: 2, PMax: 40, Seed: 23})
	res, err := SolveSplittableOpts(in, Options{ExplicitMachineLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := res.Compact.Expand(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Validate(in); err != nil {
		t.Fatalf("expanded schedule invalid: %v", err)
	}
	if exp.Makespan().Cmp(res.Compact.Makespan()) != 0 {
		t.Error("expansion changed the makespan")
	}
}

func TestCutClassesInvariants(t *testing.T) {
	in := generator.Zipf(generator.Config{N: 80, Classes: 10, Machines: 5, Slots: 3, PMax: 200, Seed: 31})
	guess := rat.FromInt(137)
	ix := core.NewClassIndex(in, core.Splittable)
	subs := newSubClasses(ix, guess)
	bundles, _ := subs.bundles(ix)
	perJob := make(map[int]rat.R)
	for _, b := range bundles {
		if b.load.Cmp(guess) > 0 {
			t.Errorf("bundle load %s exceeds guess", b.load.RatString())
		}
		var sum rat.R
		for _, pc := range b.pieces {
			if in.Class[pc.job] != b.class {
				t.Errorf("bundle of class %d contains job %d of class %d", b.class, pc.job, in.Class[pc.job])
			}
			sum = sum.Add(pc.size)
			perJob[pc.job] = perJob[pc.job].Add(pc.size)
		}
		if sum.Cmp(b.load) != 0 {
			t.Error("bundle load does not match its pieces")
		}
	}
	for j := range in.P {
		if perJob[j].Cmp(rat.FromInt(in.P[j])) != 0 {
			t.Errorf("job %d not fully covered by bundles", j)
		}
	}
	// Round robin deals the sub-classes in non-ascending load order.
	for k := 1; k < len(bundles); k++ {
		if bundles[k].load.Cmp(bundles[k-1].load) > 0 {
			t.Errorf("sub-class %d load %s above its predecessor's %s", k, bundles[k].load.RatString(), bundles[k-1].load.RatString())
		}
	}
	// Sub-class count must match the slot formula Σ⌈P_u/T⌉.
	var want int64
	for _, pu := range in.ClassLoads() {
		want += core.RatCeilDiv(pu, 137)
	}
	if int64(len(bundles)) != want {
		t.Errorf("got %d bundles, want %d", len(bundles), want)
	}
}

func TestFigure1RoundRobinLayout(t *testing.T) {
	// Figure 1: classes sorted by load are dealt cyclically onto 4 machines:
	// class ranked i lands on machine i mod 4.
	in := generator.Figure1Instance()
	res, err := SolveSplittable(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explicit == nil {
		t.Fatal("expected explicit schedule")
	}
	if err := res.Explicit.Validate(in); err != nil {
		t.Fatal(err)
	}
	// No class load exceeds the guess (total load 123 / 4 machines ≈ 30.75),
	// so classes map 1:1 to bundles and the round-robin rank equals the load
	// rank. Job u has load rank u (loads strictly decreasing).
	for _, pc := range res.Explicit.Pieces {
		want := int64(pc.Job % 4)
		if pc.Machine != want {
			t.Errorf("class %d on machine %d, want %d", pc.Job, pc.Machine, want)
		}
	}
	// Lemma 3: makespan <= sum/m + max class load = 123/4 + 20.
	limit := core.RatAdd(core.RatFrac(123, 4), core.RatInt(20))
	if res.Makespan().Cmp(limit) > 0 {
		t.Errorf("makespan %s violates the Lemma 3 bound %s", res.Makespan().RatString(), limit.RatString())
	}
}

func TestBorderVsPlainSearch(t *testing.T) {
	for _, cfg := range testConfigs() {
		in := generator.Uniform(cfg)
		border, err := BorderSearchBound(in)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := PlainIntegerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		// border <= plain <= ceil(border)
		if core.RatInt(plain).Cmp(border) < 0 {
			t.Errorf("plain %d below border %s", plain, border.RatString())
		}
		ceil := new(big.Int).Add(
			new(big.Int).Quo(new(big.Int).Sub(border.Num(), big.NewInt(1)), border.Denom()),
			big.NewInt(1))
		if big.NewInt(plain).Cmp(ceil) > 0 {
			t.Errorf("plain %d above ceil(border) %s", plain, ceil.String())
		}
	}
}
