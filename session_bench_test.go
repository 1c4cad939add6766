package ccsched

// The PR 5 churn benchmarks: the acceptance workloads for scheduling
// sessions. One op = one churn round: mutate 5% of a uniform n=1000
// instance and re-solve with the splittable PTAS at ε=1 (the
// nonpreemptive row: the non-preemptive PTAS). The session
// sub-benchmarks re-solve through a Session, whose private feasibility
// cache (keyed on derived digests) is kept across rounds; the cold
// sub-benchmarks solve the identical mutated instances from scratch with an
// isolated fresh cache per round — what a stateless server does. The
// keptcache sub-benchmark runs plain Solve over one cache kept across
// rounds, which is exactly what a session re-solve is, so it reads the
// session row's cost without the Session bookkeeping. The session
// differential tests prove all of them produce bit-identical makespans.
//
// Two workloads bound the space:
//
//   - BenchmarkSessionChurn ("resize churn"): 5% of jobs re-estimate their
//     size by up to ±2% per round — the steady-state trickle of a live
//     scheduler. The rounded class loads the guess N-folds are built from
//     rarely change, so session re-solves mostly skip the engines via the
//     derived-digest feasibility cache. This is the PR 5 acceptance row.
//   - BenchmarkSessionChurnRedraw ("redraw churn"): 5% of jobs redrawn
//     uniformly from [1, pmax], plus departures and arrivals — an
//     adversarial workload whose rounded loads change almost every round.
//     Here bit-parity forces the session to redo nearly all engine work,
//     so the two rows converge; reported for honesty, not gated.

import (
	"context"
	"math/rand"
	"testing"
)

const (
	churnN       = 1000
	churnClasses = 100
	churnM       = 50
	churnSlots   = 3
	churnPMax    = 10000
	churnFrac    = 20 // 1/20 = 5% of jobs mutated per round
)

func churnBase(b *testing.B) *Instance {
	b.Helper()
	in, err := Generate("uniform", GeneratorConfig{
		N: churnN, Classes: churnClasses, Machines: churnM, Slots: churnSlots, PMax: churnPMax, Seed: 101,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

var churnOpts = Options{Variant: Splittable, Tier: TierPTAS, Epsilon: 1}

// resizeRound applies round i of the resize-churn workload to p (the
// current processing times, mutated in place): 5% of jobs re-estimate by up
// to ±2%. Deterministic in (i, current state), so the session and cold
// sub-benchmarks replay identical instance streams.
func resizeRound(i int, p []int64) {
	rng := rand.New(rand.NewSource(int64(i)*7717 + 5))
	for k := 0; k < len(p)/churnFrac; k++ {
		pos := rng.Intn(len(p))
		cur := p[pos]
		next := cur + rng.Int63n(2*cur/50+1) - cur/50
		if next < 1 {
			next = 1
		}
		p[pos] = next
	}
}

// BenchmarkSessionChurn is the PR 5 acceptance benchmark (resize churn);
// the CI perf gate tracks the session and cold rows via scripts/benchdiff.
// The nonpreemptive row re-solves the same stream with the non-preemptive
// PTAS, whose constant-factor floor is the 7/3-approximation's plan.
func BenchmarkSessionChurn(b *testing.B) {
	ctx := context.Background()
	b.Run("session", func(b *testing.B) { benchSessionResize(b, churnOpts) })
	b.Run("nonpreemptive", func(b *testing.B) {
		opts := churnOpts
		opts.Variant = NonPreemptive
		benchSessionResize(b, opts)
	})
	b.Run("cold", func(b *testing.B) {
		in := churnBase(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resizeRound(i, in.P)
			coldOpts := churnOpts
			coldOpts.Cache = NewFeasibilityCache()
			b.StartTimer()
			if _, err := Solve(ctx, in, coldOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("keptcache", func(b *testing.B) {
		in := churnBase(b)
		kept := churnOpts
		kept.Cache = NewFeasibilityCache()
		if _, err := Solve(ctx, in, kept); err != nil {
			b.Fatal(err)
		}
		var cacheHits, probes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resizeRound(i, in.P)
			b.StartTimer()
			res, err := Solve(ctx, in, kept)
			if err != nil {
				b.Fatal(err)
			}
			cacheHits += int64(res.Report.CacheHits)
			probes += int64(res.Report.Guesses)
		}
		b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		b.ReportMetric(float64(cacheHits)/float64(b.N), "cachehits/op")
	})
}

// benchSessionResize re-solves the resize-churn stream through a Session
// with opts, one round per op.
func benchSessionResize(b *testing.B, opts Options) {
	ctx := context.Background()
	sess, err := NewSession(churnBase(b), opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(ctx); err != nil {
		b.Fatal(err)
	}
	mirror := sess.Instance()
	ids := sess.JobIDs()
	var cacheHits, probes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prev := append([]int64(nil), mirror.P...)
		resizeRound(i, mirror.P)
		for pos := range mirror.P {
			if mirror.P[pos] != prev[pos] {
				if err := sess.Resize(ids[pos], mirror.P[pos]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		res, err := sess.Solve(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cacheHits += int64(res.Report.CacheHits)
		probes += int64(res.Report.Guesses)
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(cacheHits)/float64(b.N), "cachehits/op")
}

// churnDelta is one redraw round's mutation batch, expressed positionally
// against the current job order (identical on the session and mirror
// sides).
type churnDelta struct {
	resizePos []int
	resizeP   []int64
	removePos []int // strictly descending
	addP      []int64
	addClass  []int
}

// churnRound derives redraw round i's delta deterministically from i alone.
// Mutations never repeat exactly, keeping every round's re-solve honest.
func churnRound(i, njobs int) churnDelta {
	rng := rand.New(rand.NewSource(int64(i)*9973 + 101))
	total := njobs / churnFrac
	removes := total / 8
	adds := removes // keep n stable so rounds stay comparable
	resizes := total - removes - adds
	d := churnDelta{}
	for k := 0; k < resizes; k++ {
		d.resizePos = append(d.resizePos, rng.Intn(njobs))
		d.resizeP = append(d.resizeP, 1+rng.Int63n(churnPMax))
	}
	seen := map[int]bool{}
	for len(d.removePos) < removes {
		p := rng.Intn(njobs)
		if !seen[p] {
			seen[p] = true
			d.removePos = append(d.removePos, p)
		}
	}
	// Descending order so positional removal is well-defined.
	for a := 0; a < len(d.removePos); a++ {
		for b := a + 1; b < len(d.removePos); b++ {
			if d.removePos[b] > d.removePos[a] {
				d.removePos[a], d.removePos[b] = d.removePos[b], d.removePos[a]
			}
		}
	}
	for k := 0; k < adds; k++ {
		d.addP = append(d.addP, 1+rng.Int63n(churnPMax))
		d.addClass = append(d.addClass, rng.Intn(churnClasses))
	}
	return d
}

// applyChurnToSession applies a redraw delta through the Session API.
func applyChurnToSession(b *testing.B, s *Session, d churnDelta) {
	b.Helper()
	ids := s.JobIDs()
	for k, pos := range d.resizePos {
		if err := s.Resize(ids[pos], d.resizeP[k]); err != nil {
			b.Fatal(err)
		}
	}
	rm := make([]int64, len(d.removePos))
	for k, pos := range d.removePos {
		rm[k] = ids[pos]
	}
	if err := s.RemoveJobs(rm...); err != nil {
		b.Fatal(err)
	}
	if _, err := s.AddJobs(d.addP, d.addClass); err != nil {
		b.Fatal(err)
	}
}

// applyChurnToInstance applies the same redraw delta positionally to a
// plain instance, mirroring the Session's remove-filter + append semantics.
func applyChurnToInstance(in *Instance, d churnDelta) {
	for k, pos := range d.resizePos {
		in.P[pos] = d.resizeP[k]
	}
	for _, pos := range d.removePos {
		in.P = append(in.P[:pos], in.P[pos+1:]...)
		in.Class = append(in.Class[:pos], in.Class[pos+1:]...)
	}
	in.P = append(in.P, d.addP...)
	in.Class = append(in.Class, d.addClass...)
}

// BenchmarkSessionChurnRedraw is the adversarial redraw workload (see the
// file comment). Not part of the CI perf gate: individual rounds span
// 50ms–8s depending on how hard the drifted instances' N-folds happen to
// be, which no cross-host threshold survives.
func BenchmarkSessionChurnRedraw(b *testing.B) {
	ctx := context.Background()
	b.Run("session", func(b *testing.B) {
		sess, err := NewSession(churnBase(b), churnOpts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Solve(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			applyChurnToSession(b, sess, churnRound(i, len(sess.JobIDs())))
			b.StartTimer()
			if _, err := sess.Solve(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		in := churnBase(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			applyChurnToInstance(in, churnRound(i, in.N()))
			coldOpts := churnOpts
			coldOpts.Cache = NewFeasibilityCache()
			b.StartTimer()
			if _, err := Solve(ctx, in, coldOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
