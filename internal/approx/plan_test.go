package approx

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
	"ccsched/internal/rat"
)

// planShapes are the instance shapes TestPlanMatchesRealizedSchedule
// covers for every generator family. opts only steers the splittable
// variant.
var planShapes = []struct {
	name string
	cfg  generator.Config
	opts Options
}{
	{name: "general", cfg: generator.Config{N: 100, Classes: 15, Machines: 7, Slots: 3, PMax: 1000}},
	{name: "m>=n", cfg: generator.Config{N: 12, Classes: 4, Machines: 16, Slots: 2, PMax: 50}},
	{name: "m<C", cfg: generator.Config{N: 60, Classes: 30, Machines: 4, Slots: 8, PMax: 90}},
	{name: "c=1", cfg: generator.Config{N: 40, Classes: 6, Machines: 8, Slots: 1, PMax: 200}},
	// Above the explicit-machine limit: the compact construction, and its
	// explicit fallback when m < C.
	{name: "compact", cfg: generator.Config{N: 40, Classes: 6, Machines: 9, Slots: 2, PMax: 300}, opts: Options{ExplicitMachineLimit: 1}},
	{name: "compact-m<C", cfg: generator.Config{N: 50, Classes: 20, Machines: 5, Slots: 4, PMax: 300}, opts: Options{ExplicitMachineLimit: 1}},
	{name: "huge-m", cfg: generator.Config{N: 30, Classes: 5, Machines: 1 << 40, Slots: 2, PMax: 1 << 30}},
}

// TestPlanMatchesRealizedSchedule holds every constant-factor plan to its
// realization: the plan's makespan must equal the realized schedule's, and
// the schedule must be byte-identical to the one-pass construction of
// oracle_test.go.
func TestPlanMatchesRealizedSchedule(t *testing.T) {
	// seen counts the paths the instances took, so a shape that stops
	// reaching its path fails the test instead of thinning it.
	seen := map[string]int{}
	for _, fam := range generator.Families() {
		for _, sh := range planShapes {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := sh.cfg
				cfg.Seed = seed
				in := fam.Gen(cfg)
				name := fmt.Sprintf("%s/%s/%d", fam.Name, sh.name, seed)
				t.Run(name+"/splittable", func(t *testing.T) { seen[checkSplitPlan(t, in, sh.opts)]++ })
				t.Run(name+"/preemptive", func(t *testing.T) { seen[checkPreemptivePlan(t, in)]++ })
				t.Run(name+"/nonpreemptive", func(t *testing.T) { seen[checkNonPreemptivePlan(t, in)]++ })
			}
		}
	}
	for _, path := range []string{"split-explicit", "split-compact", "split-compact-fallback", "pre-one-each", "pre-repacked", "pre-unsplit", "np-one-each", "np-groups", "np-shared-machine"} {
		if seen[path] == 0 {
			t.Errorf("no instance took path %s (seen %v)", path, seen)
		}
	}
}

// certifiedBound is the bound every plan is given.
func certifiedBound(t *testing.T, in *core.Instance, v core.Variant) rat.R {
	t.Helper()
	bound, err := core.LowerBoundR(in, v)
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// sameJSON requires two schedules to encode to the same bytes.
func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("%s differs from the one-pass construction:\n got %.300s\nwant %.300s", what, g, w)
	}
}

func checkSplitPlan(t *testing.T, in *core.Instance, opts Options) (path string) {
	bound := certifiedBound(t, in, core.Splittable)
	p, err := PlanSplittable(in, opts, bound)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Realize()
	if err := got.Compact.Validate(in); err != nil {
		t.Fatal(err)
	}
	if mk := got.Compact.MakespanR(); p.Makespan().Cmp(mk) != 0 {
		t.Errorf("plan makespan %s, compact schedule %s", p.Makespan(), mk)
	}
	if got.Explicit != nil {
		if mk := got.Explicit.MakespanR(); p.Makespan().Cmp(mk) != 0 {
			t.Errorf("plan makespan %s, explicit schedule %s", p.Makespan(), mk)
		}
	}
	want, err := oracleSplittable(in, opts, bound)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "compact schedule", got.Compact, want.Compact)
	if (got.Explicit == nil) != (want.Explicit == nil) {
		t.Fatalf("explicit schedule present %v, one-pass %v", got.Explicit != nil, want.Explicit != nil)
	}
	if got.Explicit != nil {
		sameJSON(t, "explicit schedule", got.Explicit, want.Explicit)
	}
	if got.Guess.Cmp(want.Guess) != 0 || got.LB.Cmp(want.LB) != 0 || got.SubClasses != want.SubClasses {
		t.Errorf("guess %s lb %s sub-classes %d, one-pass %s %s %d",
			got.Guess, got.LB, got.SubClasses, want.Guess, want.LB, want.SubClasses)
	}
	switch {
	case got.Explicit == nil:
		return "split-compact"
	case in.M > opts.explicitLimit():
		return "split-compact-fallback"
	}
	return "split-explicit"
}

func checkPreemptivePlan(t *testing.T, in *core.Instance) (path string) {
	bound := certifiedBound(t, in, core.Preemptive)
	p, err := PlanPreemptive(in, bound)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Realize()
	if err := got.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
	if mk := got.Schedule.MakespanR(); p.Makespan().Cmp(mk) != 0 {
		t.Errorf("plan makespan %s, schedule %s (repacked %v)", p.Makespan(), mk, got.Repacked)
	}
	want, err := oraclePreemptive(in, bound)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "schedule", got.Schedule, want.Schedule)
	if got.Guess.Cmp(want.Guess) != 0 || got.LB.Cmp(want.LB) != 0 || got.Repacked != want.Repacked {
		t.Errorf("guess %s lb %s repacked %v, one-pass %s %s %v",
			got.Guess, got.LB, got.Repacked, want.Guess, want.LB, want.Repacked)
	}
	switch {
	case in.M >= int64(in.N()):
		return "pre-one-each"
	case got.Repacked:
		return "pre-repacked"
	}
	return "pre-unsplit"
}

func checkNonPreemptivePlan(t *testing.T, in *core.Instance) (path string) {
	bound := certifiedBound(t, in, core.NonPreemptive)
	p, err := PlanNonPreemptive(in, bound)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Realize()
	if err := got.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
	if mk := got.Schedule.Makespan(in); p.Makespan() != mk {
		t.Errorf("plan makespan %d, schedule %d", p.Makespan(), mk)
	}
	want, err := oracleNonPreemptive(in, bound)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "schedule", got.Schedule, want.Schedule)
	if got.Guess != want.Guess || got.LB != want.LB || got.Groups != want.Groups {
		t.Errorf("guess %d lb %d groups %d, one-pass %d %d %d",
			got.Guess, got.LB, got.Groups, want.Guess, want.LB, want.Groups)
	}
	switch {
	case in.M >= int64(in.N()):
		return "np-one-each"
	case int64(got.Groups) > in.M:
		return "np-shared-machine"
	}
	return "np-groups"
}

// TestLPTGroupsMatchOracle holds the 7/3 plan's group loads and job
// positions, read off the class index's sorted lists, to the oracle that
// sorts fresh per-class lists, on every family and random draws.
func TestLPTGroupsMatchOracle(t *testing.T) {
	var ins []*core.Instance
	for _, fam := range generator.Families() {
		for _, sh := range planShapes {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := sh.cfg
				cfg.Seed = seed
				ins = append(ins, fam.Gen(cfg))
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		in := &core.Instance{M: 1 + rng.Int63n(int64(n-1)), Slots: 1 + rng.Intn(3)}
		for j := 0; j < n; j++ {
			in.P = append(in.P, 1+rng.Int63n([]int64{4, 100, 1 << 40}[trial%3]))
			in.Class = append(in.Class, rng.Intn(1+rng.Intn(n)))
		}
		if core.CheckFeasible(in) == nil {
			ins = append(ins, in)
		}
	}
	for i, in := range ins {
		if in.M >= int64(in.N()) {
			continue
		}
		p, err := PlanNonPreemptive(in, certifiedBound(t, in, core.NonPreemptive))
		if err != nil {
			t.Fatal(err)
		}
		loads, pos := lptGroupsOracle(in.Clone(), p.guess)
		if !slices.Equal(p.loads, loads) || !slices.Equal(p.pos, pos) {
			t.Fatalf("instance %d: loads %v pos %v, oracle %v %v", i, p.loads, p.pos, loads, pos)
		}
	}
}
