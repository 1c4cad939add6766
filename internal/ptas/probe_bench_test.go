package ptas

import (
	"context"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
	"ccsched/internal/nfold"
)

// lowerGuessNFold builds the N-fold a scheme's search probes at the
// certified lower bound, the way runScheme does: scale the instance when
// the scheme asks for it, build the template, instantiate the guess.
func lowerGuessNFold[G guess[S], S any](in *core.Instance, opts Options, sc scheme[G, S]) (*nfold.Problem, *nfold.Template, error) {
	g, err := opts.delta()
	if err != nil {
		return nil, nil, err
	}
	ix, bound, err := certifiedBound(in, sc.variant)
	if err != nil {
		return nil, nil, err
	}
	if sc.descale != nil {
		if scale := scaleFactor(bound.Rat(), in.PMax(), 4*g*g); scale > 1 {
			ix = ix.Scaled(scale)
			bound = bound.MulInt(scale)
		}
	}
	lo := max(1, bound.Ceil())
	tm, err := sc.template(context.Background(), ix, g, opts)
	if err != nil {
		return nil, nil, err
	}
	gc, err := tm.instantiate(context.Background(), lo)
	if err != nil {
		return nil, nil, err
	}
	prob, err := gc.buildNFold(context.Background())
	return prob, tm.engines(), err
}

// BenchmarkProbeNFold times one guess probe's engine run in isolation: the
// lower-bound-guess N-fold of a unitclasses n=200 instance (the ptas-coarse
// deck's shape, ε=1) solved with the probe's own nfold options. flat_rows is
// the row count Flatten hands the LP after dropping the local rows the
// bounds already decide. The template's move cache is shared across
// iterations, as across the probes of one search.
func BenchmarkProbeNFold(b *testing.B) {
	in := generator.UnitClasses(generator.Config{N: 200, Classes: 20, Machines: 10, Slots: 3, PMax: 10000, Seed: 1})
	opts := Options{Epsilon: 1}
	build := map[string]func() (*nfold.Problem, *nfold.Template, error){
		"splittable": func() (*nfold.Problem, *nfold.Template, error) { return lowerGuessNFold(in, opts, splitScheme) },
		"preemptive": func() (*nfold.Problem, *nfold.Template, error) { return lowerGuessNFold(in, opts, preScheme) },
	}
	for _, name := range []string{"splittable", "preemptive"} {
		b.Run(name, func(b *testing.B) {
			prob, tmpl, err := build[name]()
			if err != nil {
				b.Fatal(err)
			}
			mp, _, err := prob.Flatten(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			no := opts.nfoldOptions(tmpl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nfold.SolveCtx(context.Background(), prob, no); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(mp.B)), "flat_rows")
		})
	}
}
