package generator

import (
	"testing"
	"testing/quick"

	"ccsched/internal/core"
)

func configs() []Config {
	return []Config{
		{},
		{N: 1, Classes: 1, Machines: 1, Slots: 1},
		{N: 50, Classes: 7, Machines: 4, Slots: 2, PMax: 1000, Seed: 42},
		{N: 200, Classes: 40, Machines: 8, Slots: 3, PMax: 17, Seed: 7},
		{N: 30, Classes: 60, Machines: 2, Slots: 1, PMax: 5, Seed: 1}, // Classes > N
	}
}

func TestFamiliesProduceValidFeasibleInstances(t *testing.T) {
	for _, fam := range Families() {
		for i, cfg := range configs() {
			in := fam.Gen(cfg)
			if err := in.Validate(); err != nil {
				t.Errorf("%s cfg %d: invalid instance: %v", fam.Name, i, err)
			}
			if err := core.CheckFeasible(in); err != nil {
				t.Errorf("%s cfg %d: infeasible instance: %v", fam.Name, i, err)
			}
			if in.N() == 0 {
				t.Errorf("%s cfg %d: empty instance", fam.Name, i)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{N: 100, Classes: 10, Machines: 5, Slots: 2, PMax: 99, Seed: 1234}
	for _, fam := range Families() {
		a := fam.Gen(cfg)
		b := fam.Gen(cfg)
		if a.N() != b.N() || a.M != b.M || a.Slots != b.Slots {
			t.Errorf("%s: shape differs between identical seeds", fam.Name)
			continue
		}
		for j := range a.P {
			if a.P[j] != b.P[j] || a.Class[j] != b.Class[j] {
				t.Errorf("%s: job %d differs between identical seeds", fam.Name, j)
				break
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	base := Config{N: 100, Classes: 10, Machines: 5, Slots: 2, PMax: 1000, Seed: 1}
	other := base
	other.Seed = 2
	a, b := Uniform(base), Uniform(other)
	same := true
	for j := range a.P {
		if a.P[j] != b.P[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical processing times")
	}
}

func TestUnitClassesShape(t *testing.T) {
	in := UnitClasses(Config{N: 25, Machines: 30, Slots: 1, Seed: 3})
	if got := in.NumClasses(); got != 25 {
		t.Errorf("NumClasses() = %d, want 25", got)
	}
	for j, c := range in.Class {
		if c != j {
			t.Errorf("job %d has class %d, want %d", j, c, j)
		}
	}
}

func TestFewLargeClassesSkew(t *testing.T) {
	in := FewLargeClasses(Config{N: 400, Classes: 20, Machines: 10, Slots: 4, PMax: 100, Seed: 9})
	loads := in.ClassLoads()
	var top2, total int64
	first, second := int64(0), int64(0)
	for _, l := range loads {
		total += l
		if l > first {
			first, second = l, first
		} else if l > second {
			second = l
		}
	}
	top2 = first + second
	if float64(top2) < 0.5*float64(total) {
		t.Errorf("top-2 classes hold %d of %d, want the majority", top2, total)
	}
}

func TestAdversarialThirdsRegime(t *testing.T) {
	pmax := int64(300)
	in := AdversarialThirds(Config{N: 64, Classes: 4, Machines: 8, Slots: 2, PMax: pmax, Seed: 5})
	for j, p := range in.P {
		if 3*p <= pmax {
			t.Errorf("job %d: p=%d not above PMax/3", j, p)
		}
	}
}

func TestTightSlotsMinimal(t *testing.T) {
	in := TightSlots(Config{N: 60, Classes: 12, Machines: 3, Slots: 9, PMax: 50, Seed: 11})
	cc := int64(in.NumClasses())
	m := in.M
	if m > cc {
		m = cc
	}
	want := int(core.RatCeilDiv(cc, m))
	if in.Slots != want {
		t.Errorf("Slots = %d, want minimal %d", in.Slots, want)
	}
}

func TestByName(t *testing.T) {
	for _, fam := range Families() {
		got, err := ByName(fam.Name)
		if err != nil || got.Name != fam.Name {
			t.Errorf("ByName(%q) = %v, %v", fam.Name, got.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestFigure1Instance(t *testing.T) {
	in := Figure1Instance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.N() != 10 || in.M != 4 || in.NumClasses() != 10 {
		t.Errorf("unexpected shape: n=%d m=%d C=%d", in.N(), in.M, in.NumClasses())
	}
	// Figure 1 numbers its classes in non-ascending load order, the order
	// round robin consumes them.
	loads := in.ClassLoads()
	for i := 1; i < len(loads); i++ {
		if loads[i] > loads[i-1] {
			t.Errorf("loads not non-ascending at %d: %v", i, loads)
		}
	}
}

func TestWithDefaultsProperty(t *testing.T) {
	f := func(n, classes int, machines int64, slots int, pmax, seed int64) bool {
		cfg := Config{N: n % 500, Classes: classes % 50, Machines: machines % 20,
			Slots: slots % 10, PMax: pmax % 1000, Seed: seed}
		in := Uniform(cfg)
		return in.Validate() == nil && core.CheckFeasible(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
