// Package experiments implements the reproduction harness: one function per
// experiment in the experiment index of the "Paper-to-code map" in
// docs/ARCHITECTURE.md (E1–E8 measuring the paper's theorems, F1–F5
// executing its figures). Each returns a Table that cmd/ccbench renders; the
// root bench_test.go wraps the same functions in testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/exact"
	"ccsched/internal/generator"
	"ccsched/internal/nfold"
	"ccsched/internal/ptas"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned markdown.
func (t *Table) Format() string {
	out := fmt.Sprintf("## %s — %s\n\nClaim: %s\n\n", t.ID, t.Title, t.Claim)
	out += "| " + join(t.Columns, " | ") + " |\n"
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	out += "| " + join(sep, " | ") + " |\n"
	for _, r := range t.Rows {
		out += "| " + join(r, " | ") + " |\n"
	}
	for _, n := range t.Notes {
		out += "\n" + n + "\n"
	}
	return out
}

func join(xs []string, sep string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += sep
		}
		out += x
	}
	return out
}

func ratStr(r *big.Rat) string { return fmt.Sprintf("%.4f", core.RatFloat(r)) }

func ratio(mk, lb *big.Rat) string {
	if lb.Sign() == 0 {
		return "inf"
	}
	return ratStr(new(big.Rat).Quo(mk, lb))
}

// E1Splittable measures Theorem 4: the splittable 2-approximation across
// workload families, reporting makespan/LB ratios (always ≤ 2).
func E1Splittable() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Splittable 2-approximation (Theorem 4)",
		Claim:   "µ(σ) ≤ 2·OPT in O(n² log n), any machine count",
		Columns: []string{"family", "n", "C", "m", "c", "ratio vs LB", "pieces", "time"},
	}
	for _, fam := range generator.Families() {
		for _, cfg := range []generator.Config{
			{N: 50, Classes: 8, Machines: 5, Slots: 2, PMax: 1000, Seed: 11},
			{N: 500, Classes: 40, Machines: 16, Slots: 3, PMax: 10000, Seed: 12},
			{N: 2000, Classes: 100, Machines: 32, Slots: 4, PMax: 100000, Seed: 13},
		} {
			in := fam.Gen(cfg)
			start := time.Now()
			res, err := approx.SolveSplittable(in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fam.Name, err)
			}
			el := time.Since(start)
			if err := res.Compact.Validate(in); err != nil {
				return nil, fmt.Errorf("%s: invalid schedule: %w", fam.Name, err)
			}
			lb, err := core.LowerBound(in, core.Splittable)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fam.Name, fmt.Sprint(in.N()), fmt.Sprint(in.NumClasses()),
				fmt.Sprint(in.M), fmt.Sprint(in.Slots),
				ratio(res.Makespan(), lb),
				fmt.Sprint(len(res.Compact.Groups)),
				el.Round(time.Microsecond).String(),
			})
		}
	}
	// Huge machine count row (Theorem 4's exponential-m handling).
	in := &core.Instance{
		P:     []int64{1 << 30, 1 << 29, 12345, 678},
		Class: []int{0, 1, 2, 3},
		M:     1 << 50,
		Slots: 2,
	}
	res, err := approx.SolveSplittable(in)
	if err != nil {
		return nil, err
	}
	if err := res.Compact.Validate(in); err != nil {
		return nil, err
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"huge-m", "4", "4", "2^50", "2",
		ratio(res.Makespan(), lb), fmt.Sprint(len(res.Compact.Groups)), "-"})
	t.Notes = append(t.Notes,
		"Ratios are measured against the certified lower bound, so they upper-bound the true ratio; all stay ≤ 2.")
	return t, nil
}

// E2Preemptive measures Theorem 5 (preemptive 2-approximation): ratio and
// the validator's no-parallel check.
func E2Preemptive() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Preemptive 2-approximation (Theorem 5)",
		Claim:   "µ(σ) ≤ 2·OPT in O(n² log n); no job runs in parallel with itself",
		Columns: []string{"family", "n", "C", "m", "c", "ratio vs LB", "repacked", "time"},
	}
	for _, fam := range generator.Families() {
		for _, cfg := range []generator.Config{
			{N: 50, Classes: 8, Machines: 5, Slots: 2, PMax: 1000, Seed: 21},
			{N: 500, Classes: 40, Machines: 16, Slots: 3, PMax: 10000, Seed: 22},
			{N: 2000, Classes: 100, Machines: 32, Slots: 4, PMax: 100000, Seed: 23},
		} {
			in := fam.Gen(cfg)
			start := time.Now()
			res, err := approx.SolvePreemptive(in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fam.Name, err)
			}
			el := time.Since(start)
			if err := res.Schedule.Validate(in); err != nil {
				return nil, fmt.Errorf("%s: invalid schedule: %w", fam.Name, err)
			}
			lb, err := core.LowerBound(in, core.Preemptive)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fam.Name, fmt.Sprint(in.N()), fmt.Sprint(in.NumClasses()),
				fmt.Sprint(in.M), fmt.Sprint(in.Slots),
				ratio(res.Makespan(), lb),
				fmt.Sprint(res.Repacked),
				el.Round(time.Microsecond).String(),
			})
		}
	}
	return t, nil
}

// E3NonPreemptive measures Theorem 6 (7/3-approximation), including true
// ratios against exact optima on small instances.
func E3NonPreemptive() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Non-preemptive 7/3-approximation (Theorem 6)",
		Claim:   "µ(σ) ≤ 7/3·OPT in O(n² log² n)",
		Columns: []string{"family", "n", "C", "m", "c", "ratio vs LB", "ratio vs OPT", "time"},
	}
	for _, fam := range generator.Families() {
		for _, cfg := range []generator.Config{
			{N: 12, Classes: 3, Machines: 3, Slots: 2, PMax: 50, Seed: 31},
			{N: 500, Classes: 40, Machines: 16, Slots: 3, PMax: 10000, Seed: 32},
			{N: 2000, Classes: 100, Machines: 32, Slots: 4, PMax: 100000, Seed: 33},
		} {
			in := fam.Gen(cfg)
			start := time.Now()
			res, err := approx.SolveNonPreemptive(in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fam.Name, err)
			}
			el := time.Since(start)
			if err := res.Schedule.Validate(in); err != nil {
				return nil, fmt.Errorf("%s: invalid schedule: %w", fam.Name, err)
			}
			lb, err := core.LowerBound(in, core.NonPreemptive)
			if err != nil {
				return nil, err
			}
			vsOpt := "-"
			if in.N() <= 14 {
				if _, opt, err := exact.NonPreemptive(in); err == nil && opt > 0 {
					vsOpt = ratio(core.RatInt(res.Makespan(in)), core.RatInt(opt))
				}
			}
			t.Rows = append(t.Rows, []string{
				fam.Name, fmt.Sprint(in.N()), fmt.Sprint(in.NumClasses()),
				fmt.Sprint(in.M), fmt.Sprint(in.Slots),
				ratio(core.RatInt(res.Makespan(in)), lb), vsOpt,
				el.Round(time.Microsecond).String(),
			})
		}
	}
	return t, nil
}

// E4Scaling measures the O(n² log n) / O(n² log² n) running-time claims:
// doubling n and reporting the time growth factor (≈4 for quadratic), plus
// the border-search vs plain-binary-search ablation.
func E4Scaling() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Running-time scaling of the constant-factor algorithms",
		Claim:   "O(n² log n) splittable/preemptive, O(n² log² n) non-preemptive",
		Columns: []string{"algorithm", "n", "time", "x prev"},
	}
	sizes := []int{250, 500, 1000, 2000, 4000}
	type algo struct {
		name string
		run  func(*core.Instance) error
	}
	algos := []algo{
		{"splittable", func(in *core.Instance) error { _, err := approx.SolveSplittable(in); return err }},
		{"preemptive", func(in *core.Instance) error { _, err := approx.SolvePreemptive(in); return err }},
		{"non-preemptive", func(in *core.Instance) error { _, err := approx.SolveNonPreemptive(in); return err }},
	}
	for _, al := range algos {
		var prev time.Duration
		for _, n := range sizes {
			in := generator.Uniform(generator.Config{
				N: n, Classes: n / 10, Machines: int64(n / 20), Slots: 3, PMax: 10000, Seed: 41,
			})
			start := time.Now()
			if err := al.run(in); err != nil {
				return nil, err
			}
			el := time.Since(start)
			factor := "-"
			if prev > 0 {
				factor = fmt.Sprintf("%.2f", float64(el)/float64(prev))
			}
			t.Rows = append(t.Rows, []string{al.name, fmt.Sprint(n), el.Round(time.Microsecond).String(), factor})
			prev = el
		}
	}
	// Ablation: Lemma 2 border search vs plain integer binary search.
	in := generator.Uniform(generator.Config{N: 2000, Classes: 100, Machines: 32, Slots: 3, PMax: 100000, Seed: 42})
	start := time.Now()
	border, err := approx.BorderSearchBound(in)
	if err != nil {
		return nil, err
	}
	borderTime := time.Since(start)
	start = time.Now()
	plain, err := approx.PlainIntegerBound(in)
	if err != nil {
		return nil, err
	}
	plainTime := time.Since(start)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Ablation (Lemma 2): border search gives %s in %v; plain integer search gives %d in %v (border ≤ plain ≤ ⌈border⌉).",
		border.RatString(), borderTime.Round(time.Microsecond), plain, plainTime.Round(time.Microsecond)))
	return t, nil
}

// PTASConfig is one row of the E5/E6/E7 sweeps.
type ptasRow struct {
	eps float64
	cfg generator.Config
}

// E5SplittablePTAS measures Theorems 10/11: ratio vs ε, N-fold parameters,
// and the huge-m extension.
func E5SplittablePTAS() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Splittable PTAS (Theorems 10/11)",
		Claim:   "makespan ≤ (1+ε)·OPT; N-fold size grows with 1/ε, not with C or c",
		Columns: []string{"ε", "n", "m", "ratio vs LB", "guess", "engine", "N-fold vars", "log2 cost bound", "time"},
	}
	rows := []ptasRow{
		{1.0, generator.Config{N: 12, Classes: 4, Machines: 3, Slots: 2, PMax: 50, Seed: 51}},
		{0.5, generator.Config{N: 12, Classes: 4, Machines: 3, Slots: 2, PMax: 50, Seed: 51}},
		{0.34, generator.Config{N: 12, Classes: 4, Machines: 3, Slots: 2, PMax: 50, Seed: 51}},
		{0.5, generator.Config{N: 30, Classes: 8, Machines: 5, Slots: 2, PMax: 100, Seed: 52}},
	}
	for _, r := range rows {
		in := generator.Uniform(r.cfg)
		start := time.Now()
		res, err := ptas.SolveSplittable(context.Background(), in, ptas.Options{Epsilon: r.eps})
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		if err := res.Compact.Validate(in); err != nil {
			return nil, err
		}
		lb, err := core.LowerBound(in, core.Splittable)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.eps), fmt.Sprint(in.N()), fmt.Sprint(in.M),
			ratio(res.Makespan(), lb), fmt.Sprint(res.Report.Guess),
			string(res.Report.Engine), fmt.Sprint(res.Report.NFold.Vars),
			fmt.Sprintf("%.1f", res.Report.TheoreticalCostLog2),
			el.Round(time.Millisecond).String(),
		})
	}
	// Theorem 11: exponential machine count.
	in := &core.Instance{
		P:     []int64{900, 850, 400, 120, 60, 30},
		Class: []int{0, 1, 1, 2, 3, 3},
		M:     1 << 40,
		Slots: 1,
	}
	start := time.Now()
	res, err := ptas.SolveSplittable(context.Background(), in, ptas.Options{Epsilon: 0.5})
	if err != nil {
		return nil, err
	}
	el := time.Since(start)
	if err := res.Compact.Validate(in); err != nil {
		return nil, err
	}
	lb, err := core.LowerBound(in, core.Splittable)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"0.5", "6", "2^40",
		ratio(res.Makespan(), lb), fmt.Sprint(res.Report.Guess),
		string(res.Report.Engine), fmt.Sprint(res.Report.NFold.Vars),
		fmt.Sprintf("%.1f", res.Report.TheoreticalCostLog2),
		el.Round(time.Millisecond).String()})
	t.Notes = append(t.Notes,
		"The best-of floor guarantees ratio ≤ 2 even when the scheme's (1+O(δ)) constants exceed the 2-approximation at coarse ε.")
	return t, nil
}

// E6NonPreemptivePTAS measures Theorem 14 against exact optima.
func E6NonPreemptivePTAS() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Non-preemptive PTAS (Theorem 14)",
		Claim:   "makespan ≤ (1+ε)·OPT",
		Columns: []string{"ε", "n", "ratio vs OPT", "ratio vs LB", "guess", "engine", "N-fold vars", "time"},
	}
	for _, r := range []ptasRow{
		{1.0, generator.Config{N: 10, Classes: 3, Machines: 3, Slots: 2, PMax: 40, Seed: 61}},
		{0.5, generator.Config{N: 10, Classes: 3, Machines: 3, Slots: 2, PMax: 40, Seed: 61}},
		{0.5, generator.Config{N: 12, Classes: 4, Machines: 3, Slots: 2, PMax: 60, Seed: 62}},
	} {
		in := generator.Uniform(r.cfg)
		start := time.Now()
		res, err := ptas.SolveNonPreemptive(context.Background(), in, ptas.Options{Epsilon: r.eps})
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		if err := res.Schedule.Validate(in); err != nil {
			return nil, err
		}
		lb, err := core.LowerBound(in, core.NonPreemptive)
		if err != nil {
			return nil, err
		}
		vsOpt := "-"
		if _, opt, err := exact.NonPreemptive(in); err == nil {
			vsOpt = ratio(core.RatInt(res.Makespan(in)), core.RatInt(opt))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.eps), fmt.Sprint(in.N()), vsOpt,
			ratio(core.RatInt(res.Makespan(in)), lb),
			fmt.Sprint(res.Report.Guess), string(res.Report.Engine),
			fmt.Sprint(res.Report.NFold.Vars),
			el.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// E7PreemptivePTAS measures Theorem 19 (with the documented interval-module
// restriction) against the certified preemptive bracket.
func E7PreemptivePTAS() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Preemptive PTAS (Theorem 19; interval-module restriction)",
		Claim:   "makespan ≤ (1+ε)·OPT; schedule never runs a job in parallel with itself",
		Columns: []string{"ε", "n", "ratio vs LB", "bracket [lo,hi]", "guess", "engine", "N-fold vars", "time"},
	}
	for _, r := range []ptasRow{
		{1.0, generator.Config{N: 8, Classes: 2, Machines: 2, Slots: 1, PMax: 30, Seed: 71}},
		{0.5, generator.Config{N: 8, Classes: 2, Machines: 2, Slots: 1, PMax: 30, Seed: 71}},
	} {
		in := generator.Uniform(r.cfg)
		start := time.Now()
		res, err := ptas.SolvePreemptive(context.Background(), in, ptas.Options{Epsilon: r.eps, MaxNodes: 150})
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		if err := res.Schedule.Validate(in); err != nil {
			return nil, err
		}
		lb, err := core.LowerBound(in, core.Preemptive)
		if err != nil {
			return nil, err
		}
		bracket := "-"
		if lo, hi, err := exact.PreemptiveBounds(in); err == nil {
			bracket = fmt.Sprintf("[%s, %s]", ratStr(lo), ratStr(hi))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.eps), fmt.Sprint(in.N()),
			ratio(res.Makespan(), lb), bracket,
			fmt.Sprint(res.Report.Guess), string(res.Report.Engine),
			fmt.Sprint(res.Report.NFold.Vars),
			el.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// E8NFold measures the N-fold machinery itself: parameter growth with 1/δ
// and the augmentation vs branch-and-bound engine ablation.
func E8NFold() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "N-fold machinery: parameters and engine ablation",
		Claim:   "Theorem 1 cost (rsΔ)^{O(r²s+s²)}·L·Nt·polylog(Nt); engines agree on feasibility",
		Columns: []string{"source", "N", "r", "s", "t", "Δ", "augment", "aug steps", "b&b", "b&b nodes"},
	}
	// Configuration N-folds from the splittable PTAS at two accuracies.
	for _, eps := range []float64{1.0, 0.5, 0.34} {
		in := generator.Uniform(generator.Config{N: 14, Classes: 4, Machines: 3, Slots: 2, PMax: 60, Seed: 81})
		prob, err := ptas.BuildSplittableNFold(in, eps)
		if err != nil {
			return nil, err
		}
		par := prob.Params()
		ra, err := nfold.Solve(prob, &nfold.Options{Engine: nfold.EngineAugment})
		if err != nil {
			return nil, err
		}
		rb, err := nfold.Solve(prob, &nfold.Options{Engine: nfold.EngineBranchBound, FirstFeasible: true, MaxNodes: 4000})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("split ε=%v", eps), fmt.Sprint(par.N), fmt.Sprint(par.R),
			fmt.Sprint(par.S), fmt.Sprint(par.T), fmt.Sprint(par.Delta),
			ra.Status.String(), fmt.Sprint(ra.Nodes),
			rb.Status.String(), fmt.Sprint(rb.Nodes),
		})
	}
	t.Notes = append(t.Notes,
		"The augmentation engine is a restricted-Graver heuristic. In production (EngineAuto) it runs only when the branch-and-bound root LP is fractional, and 'unknown' rows continue branching from that root.")
	return t, nil
}

// All runs every experiment in order.
func All() ([]*Table, error) {
	type fn struct {
		f func() (*Table, error)
	}
	fns := []func() (*Table, error){
		E1Splittable, E2Preemptive, E3NonPreemptive, E4Scaling,
		E5SplittablePTAS, E6NonPreemptivePTAS, E7PreemptivePTAS, E8NFold,
		F1RoundRobin, F2Repack, F3PairSwap, F4Dissolve, F5FlowNetwork,
	}
	var out []*Table
	for _, f := range fns {
		tb, err := f()
		if err != nil {
			return out, err
		}
		out = append(out, tb)
	}
	return out, nil
}
