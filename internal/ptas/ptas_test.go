package ptas

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
	"ccsched/internal/nfold"
)

func ratioAtMost(t *testing.T, name string, makespan, lb *big.Rat, num, den int64) {
	t.Helper()
	if lb.Sign() == 0 {
		t.Fatalf("%s: zero lower bound", name)
	}
	limit := core.RatMul(lb, core.RatFrac(num, den))
	if makespan.Cmp(limit) > 0 {
		r := new(big.Rat).Quo(makespan, lb)
		t.Errorf("%s: makespan %s exceeds %d/%d x LB %s (ratio %.4f)",
			name, makespan.RatString(), num, den, lb.RatString(), core.RatFloat(r))
	}
}

func TestSplittablePTAS(t *testing.T) {
	for _, cfg := range []generator.Config{
		{N: 8, Classes: 3, Machines: 3, Slots: 2, PMax: 40, Seed: 1},
		{N: 12, Classes: 4, Machines: 3, Slots: 2, PMax: 50, Seed: 2},
		{N: 15, Classes: 5, Machines: 4, Slots: 2, PMax: 30, Seed: 3},
	} {
		in := generator.Uniform(cfg)
		res, err := SolveSplittable(context.Background(), in, Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Compact.Validate(in); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", cfg.Seed, err)
		}
		lb, err := core.LowerBound(in, core.Splittable)
		if err != nil {
			t.Fatal(err)
		}
		// The best-of post-processing guarantees the 2-approximation as a
		// floor; the PTAS guess machinery typically does better.
		ratioAtMost(t, "splittable-ptas", res.Makespan(), lb, 2, 1)
		if res.Report.Guess <= 0 || res.Report.Guesses <= 0 {
			t.Errorf("seed %d: missing report: %+v", cfg.Seed, res.Report)
		}
	}
}

func TestSplittablePTASHugeM(t *testing.T) {
	in := &core.Instance{
		P:     []int64{900, 850, 400, 120, 60, 30},
		Class: []int{0, 1, 1, 2, 3, 3},
		M:     1 << 40,
		Slots: 1,
	}
	res, err := SolveSplittable(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Compact.Validate(in); err != nil {
		t.Fatalf("invalid compact schedule: %v", err)
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "splittable-ptas-huge", res.Makespan(), lb, 2, 1)
}

// TestSplittableNFoldEnginesAgree runs both N-fold engines on real
// configuration N-folds: the splittable scheme's at the certified lower
// bound, at three accuracies. Augmentation may stall (Unknown), but the two
// engines must never contradict each other, and every Feasible answer must
// satisfy the problem.
func TestSplittableNFoldEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("solves three configuration N-folds")
	}
	in := generator.Uniform(generator.Config{N: 14, Classes: 4, Machines: 3, Slots: 2, PMax: 60, Seed: 81})
	for _, eps := range []float64{1, 0.5, 0.34} {
		prob, err := BuildSplittableNFold(in, eps)
		if err != nil {
			t.Fatal(err)
		}
		aug, err := nfold.Solve(prob, &nfold.Options{Engine: nfold.EngineAugment})
		if err != nil {
			t.Fatal(err)
		}
		bb, err := nfold.Solve(prob, &nfold.Options{Engine: nfold.EngineBranchBound, FirstFeasible: true, MaxNodes: 4000})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("ε=%v: augment %v in %d steps, branch and bound %v in %d nodes", eps, aug.Status, aug.Nodes, bb.Status, bb.Nodes)
		if (aug.Status == nfold.Feasible && bb.Status == nfold.Infeasible) ||
			(aug.Status == nfold.Infeasible && bb.Status == nfold.Feasible) {
			t.Errorf("ε=%v: augmentation %v, branch and bound %v", eps, aug.Status, bb.Status)
		}
		for _, r := range []*nfold.Result{aug, bb} {
			if r.Status == nfold.Feasible {
				if err := prob.Check(r.X); err != nil {
					t.Errorf("ε=%v: %s solution: %v", eps, r.Engine, err)
				}
			}
		}
	}
}

func TestNonPreemptivePTAS(t *testing.T) {
	for _, cfg := range []generator.Config{
		{N: 10, Classes: 3, Machines: 3, Slots: 2, PMax: 40, Seed: 4},
		{N: 14, Classes: 4, Machines: 3, Slots: 2, PMax: 60, Seed: 5},
	} {
		in := generator.Uniform(cfg)
		res, err := SolveNonPreemptive(context.Background(), in, Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", cfg.Seed, err)
		}
		lb, err := core.LowerBound(in, core.NonPreemptive)
		if err != nil {
			t.Fatal(err)
		}
		ratioAtMost(t, "np-ptas", core.RatInt(res.Schedule.Makespan(in)), lb, 7, 3)
	}
}

func TestNonPreemptivePTASManyMachines(t *testing.T) {
	in := &core.Instance{P: []int64{5, 9, 3}, Class: []int{0, 1, 2}, M: 5, Slots: 1}
	res, err := SolveNonPreemptive(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Makespan(in); got != 9 {
		t.Errorf("makespan = %d, want p_max = 9", got)
	}
}

// TestPreemptivePTAS exercises the full layer/interval machinery on a tiny
// instance (the preemptive N-fold is the paper's heaviest construction).
func TestPreemptivePTAS(t *testing.T) {
	if testing.Short() {
		t.Skip("preemptive PTAS is expensive")
	}
	in := generator.Uniform(generator.Config{N: 8, Classes: 2, Machines: 2, Slots: 1, PMax: 30, Seed: 6})
	res, err := SolvePreemptive(context.Background(), in, Options{Epsilon: 0.5, MaxNodes: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	lb, err := core.LowerBound(in, core.Preemptive)
	if err != nil {
		t.Fatal(err)
	}
	ratioAtMost(t, "pre-ptas", res.Makespan(), lb, 2, 1)
}

func TestPreemptivePTASManyMachines(t *testing.T) {
	in := &core.Instance{P: []int64{5, 9, 3}, Class: []int{0, 1, 2}, M: 3, Slots: 1}
	res, err := SolvePreemptive(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Makespan(); got.Cmp(core.RatInt(9)) != 0 {
		t.Errorf("makespan = %s, want p_max = 9", got.RatString())
	}
}

func TestOptionsDelta(t *testing.T) {
	cases := []struct {
		eps  float64
		want int64
		ok   bool
	}{
		{1, 1, true}, {0.5, 2, true}, {0.34, 3, true}, {0.25, 4, true},
		{0, 0, false}, {-1, 0, false}, {1.5, 0, false},
	}
	for _, tc := range cases {
		g, err := Options{Epsilon: tc.eps}.delta()
		if tc.ok && (err != nil || g != tc.want) {
			t.Errorf("delta(%v) = %d, %v; want %d", tc.eps, g, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("delta(%v) should fail", tc.eps)
		}
	}
}

func TestGuessGrid(t *testing.T) {
	grid := guessGrid(10, 24, 2)
	if grid[0] != 10 || grid[len(grid)-1] != 24 {
		t.Fatalf("grid endpoints: %v", grid)
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Errorf("grid not increasing: %v", grid)
		}
		// Steps stay within the (1+δ) factor plus integral rounding.
		if i < len(grid)-1 && grid[i] > (grid[i-1]*3+1)/2+1 {
			t.Errorf("grid step too large at %d: %v", i, grid)
		}
	}
	// Degenerate ranges.
	if g := guessGrid(5, 5, 2); len(g) != 1 || g[0] != 5 {
		t.Errorf("singleton grid: %v", g)
	}
	if g := guessGrid(9, 3, 2); len(g) != 1 || g[0] != 9 {
		t.Errorf("inverted grid: %v", g)
	}
}

func TestSearchGuessesFindsBoundary(t *testing.T) {
	grid := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	calls := 0
	best, guess, _, err := searchGuesses(grid, func(t int64) (int64, bool, error) {
		calls++
		return t, t >= 5, nil
	})
	if err != nil || guess != 5 || best != 5 {
		t.Fatalf("got %d/%d err=%v", best, guess, err)
	}
	if calls > 4 {
		t.Errorf("binary search used %d probes for 8 candidates", calls)
	}
}

func TestSearchGuessesAllReject(t *testing.T) {
	if _, _, _, err := searchGuesses([]int64{1, 2}, func(int64) (int, bool, error) {
		return 0, false, nil
	}); err == nil {
		t.Error("want error when nothing accepts")
	}
}

// goroutineID returns the calling goroutine's id from its stack header
// ("goroutine 7 [running]: ...").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestSearchGuessesRunsOnlyConsumedProbes pins the search's execution
// contract on random grids: feasibleAt runs exactly once per consumed
// verdict (tried), on the caller's goroutine, in plain binary-search order —
// for monotone predicates and for almost-monotone ones, whose outcome
// depends on that order — and a context canceled mid-search ends it at the
// probe that saw the cancel, with no further probe run.
func TestSearchGuessesRunsOnlyConsumedProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	caller := goroutineID()
	for round := 0; round < 400; round++ {
		n := 1 + rng.Intn(40)
		grid := make([]int64, n)
		for i := range grid {
			grid[i] = int64(10 * (i + 1))
		}
		// accept[i] is the verdict at grid[i]: a monotone boundary, and in
		// odd rounds a few verdicts flipped.
		boundary := rng.Intn(n + 1)
		accept := make([]bool, n)
		for i := range accept {
			accept[i] = i >= boundary
		}
		if round%2 == 1 {
			for f := rng.Intn(3); f >= 0; f-- {
				i := rng.Intn(n)
				accept[i] = !accept[i]
			}
		}
		// The reference walk: plain binary search over accept.
		var wantOrder []int
		wantBest := -1
		for lo, hi := 0, n-1; lo <= hi; {
			mid := (lo + hi) / 2
			wantOrder = append(wantOrder, mid)
			if accept[mid] {
				wantBest, hi = mid, mid-1
			} else {
				lo = mid + 1
			}
		}
		// cancelAt ≥ 0 cancels the context inside that probe (in
		// consumption order), which then returns the context error.
		cancelAt := -1
		if round%4 == 3 {
			cancelAt = rng.Intn(len(wantOrder))
		}
		ctx, cancel := context.WithCancel(context.Background())
		var order []int
		payload, guess, tried, err := searchGuesses(grid, func(v int64) (int64, bool, error) {
			if id := goroutineID(); id != caller {
				t.Errorf("round %d: probe ran on goroutine %s, caller is %s", round, id, caller)
			}
			if len(order) == cancelAt {
				cancel()
			}
			order = append(order, int(v/10)-1)
			if err := ctx.Err(); err != nil {
				return 0, false, err
			}
			return v * 3, accept[int(v/10)-1], nil
		})
		cancel()
		name := fmt.Sprintf("round %d (n=%d, accept=%v, cancelAt=%d)", round, n, accept, cancelAt)
		if tried != len(order) {
			t.Fatalf("%s: feasibleAt ran %d times, tried reports %d", name, len(order), tried)
		}
		if cancelAt >= 0 {
			if !errors.Is(err, context.Canceled) || fmt.Sprint(order) != fmt.Sprint(wantOrder[:cancelAt+1]) {
				t.Fatalf("%s: canceled search ran %v and returned %v; want %v and context.Canceled",
					name, order, err, wantOrder[:cancelAt+1])
			}
			continue
		}
		if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
			t.Fatalf("%s: probe order %v, want binary-search order %v", name, order, wantOrder)
		}
		switch {
		case wantBest < 0 && err == nil:
			t.Fatalf("%s: accepted %d with no accepting probe", name, guess)
		case wantBest >= 0 && (err != nil || guess != grid[wantBest] || payload != 3*grid[wantBest]):
			t.Fatalf("%s: got (%d, %d, %v), want guess %d", name, payload, guess, err, grid[wantBest])
		}
	}
}

func TestGroupJobsInvariants(t *testing.T) {
	in := generator.Zipf(generator.Config{N: 60, Classes: 6, Machines: 4, Slots: 2, PMax: 100, Seed: 7})
	byClass := in.ClassJobs()
	g, tt := int64(2), int64(200) // δT = 100
	for u, jobs := range byClass {
		if len(jobs) == 0 {
			continue
		}
		grouped, isSmall, _ := groupJobs(in, jobs, g, tt, make([]int, len(jobs)))
		seen := make(map[int]bool)
		var total int64
		for _, gj := range grouped {
			var load int64
			for _, j := range gj.orig {
				if seen[j] {
					t.Fatalf("class %d: job %d grouped twice", u, j)
				}
				seen[j] = true
				load += in.P[j]
			}
			if load != gj.load {
				t.Errorf("class %d: grouped load %d != %d", u, gj.load, load)
			}
			total += load
		}
		for _, j := range jobs {
			if !seen[j] {
				t.Errorf("class %d: job %d missing after grouping", u, j)
			}
		}
		if isSmall {
			if len(grouped) != 1 || grouped[0].load*g > tt {
				t.Errorf("class %d: small class with %d jobs load %d", u, len(grouped), grouped[0].load)
			}
		} else {
			// Every grouped job is at least... the merged leftover rule can
			// only grow jobs, and packets reach > δT; original big jobs are
			// > δT by definition.
			for _, gj := range grouped {
				if gj.load*g <= tt && len(gj.orig) == 1 {
					t.Errorf("class %d: large class keeps job of load %d <= δT", u, gj.load)
				}
			}
		}
	}
}

func TestEnumerateConfigsCounts(t *testing.T) {
	// Modules {2,3}, maxSize 5, maxSlots 2:
	// {}, {2}, {3}, {2,2}, {2,3} -> 5 configurations.
	configs, err := enumerateConfigs(context.Background(), []int64{2, 3}, 5, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 5 {
		t.Errorf("got %d configurations, want 5", len(configs))
	}
	if _, err := enumerateConfigs(context.Background(), []int64{1, 2, 3}, 30, 30, 3); err == nil {
		t.Error("want limit error")
	}
}

func TestEnumerateIntervalConfigs(t *testing.T) {
	// 3 layers: intervals [0,1),[0,2),[0,3),[1,2),[1,3),[2,3) = 6 modules.
	mods := []interval{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	configs, err := enumerateIntervalConfigs(context.Background(), mods, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 7 { // empty + 6 singletons
		t.Errorf("maxSlots=1: got %d configs, want 7", len(configs))
	}
	configs, err = enumerateIntervalConfigs(context.Background(), mods, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint pairs: [0,1)+[1,2), [0,1)+[1,3), [0,1)+[2,3), [0,2)+[2,3),
	// [1,2)+[2,3) = 5. Total = 7 + 5 = 12.
	if len(configs) != 12 {
		t.Errorf("maxSlots=2: got %d configs, want 12", len(configs))
	}
	for _, cc := range configs {
		var covered int64
		end := -1
		for _, mi := range cc.intervals {
			if mods[mi].lo < end {
				t.Errorf("config %v has overlapping intervals", cc.intervals)
			}
			end = mods[mi].hi
			covered += int64(mods[mi].length())
		}
		if covered != cc.size {
			t.Errorf("config size %d != covered %d", cc.size, covered)
		}
	}
}
