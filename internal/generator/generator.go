// Package generator produces seeded synthetic CCS workloads.
//
// The paper is a theory paper and ships no benchmark inputs, so the tests
// and benchmarks stress each proof's tight spots with parameterized
// families: uniformly random loads, Zipf-skewed class sizes, a few huge
// classes (exercising the class-splitting step of Algorithm 1), unit
// classes (the Chen et al. special case), cardinality-style instances
// (C = n), and adversarial non-preemptive instances whose jobs cluster just
// above T/3 and T/2 (the tight spots of the 7/3 analysis).
//
// All families are deterministic given (Config, seed) so tests and
// benchmarks are reproducible.
package generator

import (
	"fmt"
	"math/rand"

	"ccsched/internal/core"
)

// Config parameterizes a workload family.
type Config struct {
	// N is the number of jobs.
	N int
	// Classes is the number of distinct classes C (capped at N).
	Classes int
	// Machines is m.
	Machines int64
	// Slots is the per-machine class budget c.
	Slots int
	// PMax bounds processing times (p_j uniform in [1, PMax] unless the
	// family dictates otherwise). Defaults to 100 when zero.
	PMax int64
	// Seed drives the deterministic RNG.
	Seed int64
}

func (cfg Config) withDefaults() Config {
	if cfg.N <= 0 {
		cfg.N = 10
	}
	if cfg.Classes <= 0 {
		cfg.Classes = 1
	}
	if cfg.Classes > cfg.N {
		cfg.Classes = cfg.N
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PMax <= 0 {
		cfg.PMax = 100
	}
	return cfg
}

// ensureFeasible grows the slot budget (never the instance) until
// C <= c*m holds, so every generated instance admits a schedule.
func ensureFeasible(in *core.Instance) {
	cc := int64(in.NumClasses())
	for int64(in.Slots)*min64(in.M, cc) < cc {
		in.Slots++
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Uniform draws processing times uniformly from [1, PMax] and classes
// uniformly from [0, Classes).
func Uniform(cfg Config) *core.Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &core.Instance{M: cfg.Machines, Slots: cfg.Slots}
	for j := 0; j < cfg.N; j++ {
		in.P = append(in.P, 1+rng.Int63n(cfg.PMax))
		in.Class = append(in.Class, rng.Intn(cfg.Classes))
	}
	norm, _ := in.Normalize()
	ensureFeasible(norm)
	return norm
}

// Zipf skews the class popularity: class u receives a number of jobs
// roughly proportional to 1/(u+1)^1.5, modeling data-placement workloads
// where a few databases are hot.
func Zipf(cfg Config) *core.Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(cfg.Classes-1))
	in := &core.Instance{M: cfg.Machines, Slots: cfg.Slots}
	for j := 0; j < cfg.N; j++ {
		in.P = append(in.P, 1+rng.Int63n(cfg.PMax))
		in.Class = append(in.Class, int(zipf.Uint64()))
	}
	norm, _ := in.Normalize()
	ensureFeasible(norm)
	return norm
}

// FewLargeClasses concentrates ~80% of the total load in two classes,
// forcing Algorithm 1 to split classes with P_u > T into many sub-classes.
func FewLargeClasses(cfg Config) *core.Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &core.Instance{M: cfg.Machines, Slots: cfg.Slots}
	heavy := 2
	if cfg.Classes < 2 {
		heavy = 1
	}
	for j := 0; j < cfg.N; j++ {
		if rng.Float64() < 0.8 {
			in.P = append(in.P, cfg.PMax/2+1+rng.Int63n(cfg.PMax/2+1))
			in.Class = append(in.Class, rng.Intn(heavy))
		} else {
			in.P = append(in.P, 1+rng.Int63n(cfg.PMax/4+1))
			in.Class = append(in.Class, rng.Intn(cfg.Classes))
		}
	}
	norm, _ := in.Normalize()
	ensureFeasible(norm)
	return norm
}

// UnitClasses gives every job its own class (C = n), the cardinality-
// constrained special case studied by Chen et al. and the CCBP literature.
func UnitClasses(cfg Config) *core.Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &core.Instance{M: cfg.Machines, Slots: cfg.Slots}
	for j := 0; j < cfg.N; j++ {
		in.P = append(in.P, 1+rng.Int63n(cfg.PMax))
		in.Class = append(in.Class, j)
	}
	ensureFeasible(in)
	return in
}

// AdversarialThirds builds non-preemptive stress instances: per class, one
// job slightly above PMax/2 and several slightly above PMax/3, the regime
// where the 7/3 analysis of Theorem 6 is tight.
func AdversarialThirds(cfg Config) *core.Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &core.Instance{M: cfg.Machines, Slots: cfg.Slots}
	t := cfg.PMax
	for j := 0; j < cfg.N; j++ {
		u := j % cfg.Classes
		var p int64
		switch j % 4 {
		case 0:
			p = t/2 + 1 + rng.Int63n(maxI64(t/8, 1)) // just above T/2
		default:
			p = t/3 + 1 + rng.Int63n(maxI64(t/12, 1)) // just above T/3
		}
		in.P = append(in.P, p)
		in.Class = append(in.Class, u)
	}
	norm, _ := in.Normalize()
	ensureFeasible(norm)
	return norm
}

// TightSlots keeps the slot budget at its minimum feasible value
// c = ⌈C/m⌉, maximizing class-constraint pressure.
func TightSlots(cfg Config) *core.Instance {
	cfg = cfg.withDefaults()
	in := Uniform(cfg)
	cc := int64(in.NumClasses())
	slots := int(core.RatCeilDiv(cc, min64(in.M, cc)))
	if slots < 1 {
		slots = 1
	}
	in.Slots = slots
	ensureFeasible(in)
	return in
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Family is a named instance generator.
type Family struct {
	Name string
	Desc string
	Gen  func(Config) *core.Instance
}

// Families lists every built-in workload family in a stable order.
func Families() []Family {
	return []Family{
		{"uniform", "uniform processing times and class assignment", Uniform},
		{"zipf", "Zipf-skewed class popularity (hot databases)", Zipf},
		{"fewlarge", "two classes hold ~80% of the load", FewLargeClasses},
		{"unitclasses", "every job is its own class (C = n)", UnitClasses},
		{"thirds", "jobs just above T/2 and T/3 (7/3-tightness regime)", AdversarialThirds},
		{"tightslots", "minimum feasible slot budget c = ceil(C/m)", TightSlots},
	}
}

// ByName returns the family with the given name.
func ByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("generator: unknown family %q", name)
}

// Figure1Instance reproduces the 10-class example of the paper's Figure 1:
// ten classes with non-ascending accumulated loads distributed by round
// robin onto four machines. Loads are chosen to match the figure's shape
// (classes 1..10 with decreasing P_u, classes 5/9 stacking on machine 1,
// and so on); each class is a single job, the splittable canonical form.
func Figure1Instance() *core.Instance {
	loads := []int64{20, 19, 18, 17, 12, 11, 10, 9, 4, 3}
	in := &core.Instance{M: 4, Slots: 3}
	for u, p := range loads {
		in.P = append(in.P, p)
		in.Class = append(in.Class, u)
	}
	return in
}
