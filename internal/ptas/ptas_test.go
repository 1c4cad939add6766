package ptas

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"

	"ccsched/internal/core"
	"ccsched/internal/generator"
	"ccsched/internal/nfold"
	"ccsched/internal/trace"
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
		ratioAtMost(t, "np-ptas", core.RatInt(res.Makespan(in)), lb, 7, 3)
	}
}

func TestNonPreemptivePTASManyMachines(t *testing.T) {
	in := &core.Instance{P: []int64{5, 9, 3}, Class: []int{0, 1, 2}, M: 5, Slots: 1}
	res, err := SolveNonPreemptive(context.Background(), in, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Makespan(in); got != 9 {
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
	best, guess, _, err := searchGuesses(context.Background(), grid, 1, 0, trace.Span{}, func(_ context.Context, t int64) (int64, bool, error) {
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
	if _, _, _, err := searchGuesses(context.Background(), []int64{1, 2}, 1, 0, trace.Span{}, func(context.Context, int64) (int, bool, error) {
		return 0, false, nil
	}); err == nil {
		t.Error("want error when nothing accepts")
	}
}

// TestSearchGuessesParallelIdentical proves the speculative parallel search
// consumes the exact sequential probe sequence: accepted guess, payload and
// probe count match the sequential walk for every parallelism, every
// boundary position — and even for a non-monotone predicate, where the
// outcome depends on the probe order.
func TestSearchGuessesParallelIdentical(t *testing.T) {
	grid := make([]int64, 23)
	for i := range grid {
		grid[i] = int64(i + 1)
	}
	predicates := map[string]func(int64) bool{
		"monotone-low":  func(v int64) bool { return v >= 3 },
		"monotone-mid":  func(v int64) bool { return v >= 12 },
		"monotone-top":  func(v int64) bool { return v >= 23 },
		"all-accept":    func(int64) bool { return true },
		"non-monotone":  func(v int64) bool { return v >= 9 && v != 14 && v != 15 },
		"non-monotone2": func(v int64) bool { return v%3 == 0 || v >= 20 },
	}
	for name, pred := range predicates {
		probe := func(_ context.Context, v int64) (int64, bool, error) {
			return v * 10, pred(v), nil
		}
		wantBest, wantGuess, wantTried, wantErr := searchGuesses(context.Background(), grid, 1, 0, trace.Span{}, probe)
		for _, par := range []int{2, 3, 8, 64} {
			best, guess, tried, err := searchGuesses(context.Background(), grid, par, 0, trace.Span{}, probe)
			if (err == nil) != (wantErr == nil) || best != wantBest || guess != wantGuess || tried != wantTried {
				t.Errorf("%s par=%d: got (%d,%d,%d,%v) want (%d,%d,%d,%v)",
					name, par, best, guess, tried, err, wantBest, wantGuess, wantTried, wantErr)
			}
		}
	}
}

// TestSearchGuessesSpeculativeOverlap proves the parallel search actually
// overlaps in-flight probes: with per-probe latency L and enough workers,
// the walker's whole binary-search path runs concurrently, so wall-clock
// stays near L instead of path-length × L. Latency-bound probes make the
// test independent of the host's core count.
func TestSearchGuessesSpeculativeOverlap(t *testing.T) {
	grid := make([]int64, 15) // binary-search path length 4
	for i := range grid {
		grid[i] = int64(i + 1)
	}
	const latency = 100 * time.Millisecond
	probe := func(pctx context.Context, v int64) (int64, bool, error) {
		select {
		case <-time.After(latency):
		case <-pctx.Done():
			return 0, false, pctx.Err()
		}
		return v, v >= 11, nil
	}
	start := time.Now()
	_, guess, tried, err := searchGuesses(context.Background(), grid, 16, 0, trace.Span{}, probe)
	elapsed := time.Since(start)
	if err != nil || guess != 11 {
		t.Fatalf("guess %d err %v", guess, err)
	}
	if tried != 4 {
		t.Fatalf("walker consumed %d probes, want 4", tried)
	}
	// Sequential cost is 4 × latency; full speculation needs ~1 × latency.
	// Allow 2.5× for scheduling slop — still far below sequential.
	if elapsed >= 4*latency {
		t.Errorf("speculative search took %s, sequential-like for a 4-probe path", elapsed)
	}
	if elapsed > latency*5/2 {
		t.Errorf("speculative search took %s, want ≈%s (overlapped path)", elapsed, latency)
	}
}

// TestSearchGuessesParallelCancel proves a canceled context aborts the
// parallel search with ctx.Err() instead of hanging on in-flight probes.
func TestSearchGuessesParallelCancel(t *testing.T) {
	grid := make([]int64, 31)
	for i := range grid {
		grid[i] = int64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, len(grid))
	_, _, _, err := searchGuesses(ctx, grid, 4, 0, trace.Span{}, func(pctx context.Context, v int64) (int64, bool, error) {
		started <- struct{}{}
		cancel()
		<-pctx.Done()
		return 0, false, pctx.Err()
	})
	if err == nil {
		t.Fatal("want a context error after cancel")
	}
	if ctx.Err() == nil {
		t.Fatal("outer context should be canceled")
	}
}

// TestSearchGuessesSeedWindow drives the seeded walk over every grid of 1–12
// guesses, every monotone boundary (including none) and seeds at every grid
// value, zero, below the bottom and above the top. The seeded search must
// return the unseeded search's payload and guess; when the window brackets
// the boundary it must stop there, after at most seedWindow+1 probes; and a
// failing probe, wherever it sits, must surface as the search error once the
// walk asks for it.
func TestSearchGuessesSeedWindow(t *testing.T) {
	errProbe := errors.New("probe failed")
	for n := 1; n <= 12; n++ {
		grid := make([]int64, n)
		for i := range grid {
			grid[i] = int64(10 * (i + 1))
		}
		seeds := []int64{0, 5, grid[n-1] + 5}
		seeds = append(seeds, grid...)
		for b := 0; b <= n; b++ { // grid[b] is the first accepted guess
			for _, seed := range seeds {
				name := fmt.Sprintf("n=%d/boundary=%d/seed=%d", n, b, seed)
				// search runs the seeded search with the probe at index fail
				// (if any) returning errProbe.
				search := func(seed int64, fail int) (best int64, guess int64, calls int, failed bool, err error) {
					best, guess, _, err = searchGuesses(context.Background(), grid, 1, seed, trace.Span{}, func(_ context.Context, v int64) (int64, bool, error) {
						calls++
						i := int(v/10) - 1
						if i == fail {
							failed = true
							return 0, false, errProbe
						}
						return v * 7, i >= b, nil
					})
					return best, guess, calls, failed, err
				}
				wantBest, wantGuess, _, _, wantErr := search(0, -1)
				best, guess, calls, _, err := search(seed, -1)
				if (err == nil) != (wantErr == nil) || best != wantBest || guess != wantGuess {
					t.Fatalf("%s: seeded (%d, %d, %v), unseeded (%d, %d, %v)",
						name, best, guess, err, wantBest, wantGuess, wantErr)
				}
				i0 := min(n-1, int((seed+9)/10)-1)
				lo := i0 - seedWindow
				bracketed := n > 1 && seed > 0 && b < n && b <= i0+seedWindow && (b > lo || b == 0 && lo <= 0)
				if bracketed {
					// The walk stops at the first verdict that closes the
					// bracket: one probe per step from i0 to the boundary's
					// reject side (or to the grid bottom).
					want := b - i0 + 1
					if b <= i0 {
						want = i0 - max(b-1, 0) + 1
					}
					if calls != want || calls > seedWindow+1 {
						t.Errorf("%s: window brackets the boundary with %d probes, want %d (at most %d)",
							name, calls, want, seedWindow+1)
					}
				}
				for fail := 0; fail < n; fail++ {
					best, guess, _, failed, err := search(seed, fail)
					if failed && !errors.Is(err, errProbe) {
						t.Fatalf("%s/fail=%d: probe error not surfaced (%d, %d, %v)", name, fail, best, guess, err)
					}
					if !failed && ((err == nil) != (wantErr == nil) || best != wantBest || guess != wantGuess) {
						t.Fatalf("%s/fail=%d: unasked failing probe changed the result to (%d, %d, %v)", name, fail, best, guess, err)
					}
				}
			}
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
		grouped, isSmall := groupJobs(in, jobs, g, tt)
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
	configs, err := enumerateConfigs([]int64{2, 3}, 5, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 5 {
		t.Errorf("got %d configurations, want 5", len(configs))
	}
	if _, err := enumerateConfigs([]int64{1, 2, 3}, 30, 30, 3); err == nil {
		t.Error("want limit error")
	}
}

func TestEnumerateIntervalConfigs(t *testing.T) {
	// 3 layers: intervals [0,1),[0,2),[0,3),[1,2),[1,3),[2,3) = 6 modules.
	mods := []interval{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	configs, err := enumerateIntervalConfigs(mods, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 7 { // empty + 6 singletons
		t.Errorf("maxSlots=1: got %d configs, want 7", len(configs))
	}
	configs, err = enumerateIntervalConfigs(mods, 2, 1000)
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
