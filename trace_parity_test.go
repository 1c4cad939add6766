// Trace inertness: enabling Options.Trace must not change any output —
// not the makespan, not the certified lower bound, not the schedule, not a
// single deterministic report counter. The span collector only observes; a
// divergence here means tracing leaked into control flow. The differential
// below runs traced and untraced solves across every generator family and
// all three variants, and requires the normalized results to be
// bit-identical.
package ccsched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ccsched"
)

// normalizedJSON serializes a result with the trace and the run-to-run
// nondeterministic diagnostics removed (speculative-probe counters vary
// with scheduling regardless of tracing), leaving exactly the
// deterministic surface: makespan, lower bound, tier, schedules, accepted
// guess, probe count, N-fold parameters.
func normalizedJSON(t *testing.T, res *ccsched.Result) []byte {
	t.Helper()
	r := *res
	r.Trace = nil
	r.Report.BBNodes = 0
	r.Report.BBPivots = 0
	r.Report.WarmHits = 0
	r.Report.CacheHits = 0
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyOptions round-trips opts through JSON with the engine_parallelism
// field that requests and snapshots carried while the engines had an opt-in
// intra-engine parallel mode. The field is ignored now: the legacy JSON
// must decode to exactly opts.
func legacyOptions(t *testing.T, opts ccsched.Options, engPar int) ccsched.Options {
	t.Helper()
	data, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["engine_parallelism"] = engPar
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var got ccsched.Options
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("legacy options %s: %v", data, err)
	}
	if !reflect.DeepEqual(got, opts) {
		t.Fatalf("legacy options %s decoded to %+v, want %+v", data, got, opts)
	}
	return got
}

// TestTraceParityAllFamilies is the tracing differential: for every
// generator family × variant, a traced solve must be bit-identical to the
// untraced solve of the same instance, and the traced result must actually
// carry a root span. The engpar=4 arm decodes its options from legacy JSON
// carrying "engine_parallelism":4 (see legacyOptions), which must decode to
// the engpar=1 arm's options.
func TestTraceParityAllFamilies(t *testing.T) {
	for _, family := range ccsched.GeneratorFamilies() {
		// Per-variant sizes and node budgets mirror variantCases: each PTAS
		// solve stays well under a second, and the preemptive scheme (whose
		// configuration sets grow fastest) gets the smallest instance.
		for _, vc := range []struct {
			variant  ccsched.Variant
			n, cls   int
			maxNodes int
		}{
			{ccsched.Splittable, 16, 4, 300},
			{ccsched.NonPreemptive, 12, 4, 300},
			{ccsched.Preemptive, 8, 2, 150},
		} {
			variant := vc.variant
			in, err := ccsched.Generate(family, ccsched.GeneratorConfig{
				N: vc.n, Classes: vc.cls, Machines: 3, Slots: 2, PMax: 100, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, engPar := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/engpar=%d", family, variant, engPar), func(t *testing.T) {
					// ε = 1 keeps the guess grid (and therefore the runtime)
					// small without skipping any pipeline stage; the race job
					// runs this whole matrix.
					opts := ccsched.Options{
						Variant: variant, Tier: ccsched.TierPTAS, Epsilon: 1,
						MaxNodes: vc.maxNodes, NoCache: true,
					}
					if engPar > 1 {
						opts = legacyOptions(t, opts, engPar)
					}
					plain, err := ccsched.Solve(context.Background(), in, opts)
					if err != nil {
						t.Fatalf("untraced: %v", err)
					}
					opts.Trace = true
					traced, err := ccsched.Solve(context.Background(), in, opts)
					if err != nil {
						t.Fatalf("traced: %v", err)
					}
					if plain.Trace != nil {
						t.Fatal("untraced solve carries a trace")
					}
					if traced.Trace == nil || len(traced.Trace.Spans) == 0 {
						t.Fatal("traced solve has no spans")
					}
					if traced.Trace.Spans[0].Name != "solve" || traced.Trace.Spans[0].Parent != -1 {
						t.Fatalf("root span %+v, want solve/-1", traced.Trace.Spans[0])
					}
					a, b := normalizedJSON(t, plain), normalizedJSON(t, traced)
					if !bytes.Equal(a, b) {
						t.Errorf("traced result diverges\nuntraced: %s\ntraced:   %s", a, b)
					}
					checkSchemeSpans(t, traced.Trace)
					if engPar == 1 {
						checkSessionResolveSpans(t, in, opts)
					}
				})
			}
		}
	}
}

// checkSessionResolveSpans runs checkSchemeSpans on a traced session
// re-solve: a session's first solve, one resize, then the re-solve whose
// trace must have the same shape as a one-shot solve's.
func checkSessionResolveSpans(t *testing.T, in *ccsched.Instance, opts ccsched.Options) {
	t.Helper()
	sess, err := ccsched.NewSession(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(context.Background()); err != nil {
		t.Fatalf("session solve: %v", err)
	}
	if err := sess.Resize(sess.JobIDs()[0], in.P[0]+1); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("session re-solve: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("traced session re-solve has no trace")
	}
	checkSchemeSpans(t, res.Trace)
}

// checkSchemeSpans pins the span tree every PTAS scheme records, whose names
// perfbench folds into its ptas.*_self_ms rows: template_build and
// guess_search are sibling children of the root solve span, every child of
// guess_search is a probe, and guess_search carries exactly the guesses,
// guess and grid attributes.
func checkSchemeSpans(t *testing.T, tr *ccsched.SolveTrace) {
	t.Helper()
	search := -1
	templates := 0
	for i, sp := range tr.Spans {
		switch sp.Name {
		case "template_build":
			templates++
			if sp.Parent != 0 {
				t.Errorf("template_build parent %d, want the solve span", sp.Parent)
			}
		case "guess_search":
			if search >= 0 {
				t.Error("more than one guess_search span")
			}
			search = i
			if sp.Parent != 0 {
				t.Errorf("guess_search parent %d, want the solve span", sp.Parent)
			}
			var keys []string
			for _, a := range sp.Attrs {
				keys = append(keys, a.Key)
			}
			if got := fmt.Sprint(keys); got != "[guesses guess grid]" {
				t.Errorf("guess_search attributes %s, want [guesses guess grid]", got)
			}
		case "probe":
			if search < 0 || sp.Parent != search {
				t.Errorf("probe parent %d, want guess_search %d", sp.Parent, search)
			}
		}
		if search >= 0 && sp.Parent == search && sp.Name != "probe" {
			t.Errorf("guess_search child %q, want only probe spans", sp.Name)
		}
	}
	if templates != 1 || search < 0 {
		t.Errorf("%d template_build and guess_search at %d, want one of each", templates, search)
	}
}
