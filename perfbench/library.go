package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ccsched"
)

// deadline is the per-op context deadline of the library workloads; past
// it the op is answered by the approx fallback.
const deadline = 2 * time.Second

// setupReps is how many times a workload sets up; setup_s is their median.
const setupReps = 7

// cell is one (family, variant, size) entry of a workload's deck.
type cell struct {
	family  string
	variant ccsched.Variant
	gen     ccsched.GeneratorConfig // Seed is filled per op
}

func (c cell) String() string { return fmt.Sprintf("%s/%v/n=%d", c.family, c.variant, c.gen.N) }

// deck is a closed-loop PTAS workload: one caller cycling through cells.
type deck struct {
	eps   float64
	cells []cell
	// cliff, when set, is solved once at the start of the measured
	// region and once at its midpoint.
	cliff *cell
}

// coarseDeck is ptas-coarse: the everyday ε=1 call at n=200. NOTES.md says
// why zipf, fewlarge, thirds-splittable and most preemptive cells are not
// in it and why the preemptive cliff cell runs exactly twice.
func coarseDeck() deck {
	g := ccsched.GeneratorConfig{N: 200, Classes: 20, Machines: 10, Slots: 3, PMax: 10000}
	d := deck{eps: 1}
	for _, fam := range []string{"uniform", "thirds", "tightslots", "unitclasses"} {
		for _, v := range []ccsched.Variant{ccsched.Splittable, ccsched.NonPreemptive} {
			if fam == "thirds" && v == ccsched.Splittable {
				continue // bimodal per op: ~0.3 ms or ~10-17 ms
			}
			d.cells = append(d.cells, cell{fam, v, g})
		}
	}
	d.cliff = &cell{"unitclasses", ccsched.Preemptive, g}
	return d
}

var variants = []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive}

func runPTASCoarse(cfg config) (*recorder, error) { return runDeck(cfg, coarseDeck()) }

// instances draws one fresh instance per cell; no instance repeats within
// a run because every draw takes the next seed from rng.
func (d deck) instances(rng *rand.Rand) ([]*ccsched.Instance, error) {
	out := make([]*ccsched.Instance, len(d.cells))
	for i, c := range d.cells {
		in, err := c.generate(rng)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

func (c cell) generate(rng *rand.Rand) (*ccsched.Instance, error) {
	g := c.gen
	g.Seed = rng.Int63()
	return ccsched.Generate(c.family, g)
}

// runDeck runs a closed PTAS loop: every op is one ccsched.Solve with the
// deck's ε, the 2 s deadline and the approx fallback, all other Options at
// their defaults. The measured region covers whole cycles of the deck, so
// every run solves each cell equally often. With -trace, odd cycles run
// traced and even ones untraced, which gives trace.overhead_ratio over the
// same mix.
func runDeck(cfg config, d deck) (*recorder, error) {
	rec := newRecorder()
	// Every repetition warms up on a fresh draw of the deck, the same in
	// every run: a PTAS solve's time varies widely between instances, and
	// set-up time should not depend on the seed.
	warmRng := rand.New(rand.NewSource(1))
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the garbage of earlier repetitions is not this one's cost
		t := time.Now()
		warm, err := d.instances(warmRng)
		if err != nil {
			return nil, err
		}
		for k, in := range warm {
			if _, err := solveOp(in, d.cells[k].variant, d.eps, false); err != nil {
				return nil, fmt.Errorf("warm-up %v: %w", d.cells[k], err)
			}
		}
		rec.setups = append(rec.setups, time.Since(t).Seconds())
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	led := newLedger()
	var lt layerTotals
	var tracedMs, plainMs float64
	var tracedOps, plainOps int
	cliffsRun := 0
	slow := map[string]int{}         // deadline hits per cell, for the report
	cellMs := map[string][]float64{} // latencies per cell, for the report
	rec.start()
	begin := time.Now()
	measure := time.Duration(cfg.seconds * float64(time.Second))
	for cycle := 0; time.Since(begin) < measure; cycle++ {
		cells, err := d.instances(rng)
		if err != nil {
			return nil, err
		}
		variantsOf := make([]ccsched.Variant, len(cells))
		names := make([]string, len(cells))
		for k := range cells {
			variantsOf[k], names[k] = d.cells[k].variant, d.cells[k].String()
		}
		regular := 0 // index of the cycle's first regular cell
		if d.cliff != nil && (cliffsRun == 0 || (cliffsRun == 1 && time.Since(begin) >= measure/2)) {
			in, err := d.cliff.generate(rng)
			if err != nil {
				return nil, err
			}
			cells = append([]*ccsched.Instance{in}, cells...)
			variantsOf = append([]ccsched.Variant{d.cliff.variant}, variantsOf...)
			names = append([]string{"cliff " + d.cliff.String()}, names...)
			cliffsRun++
			regular = 1
		}
		traced := cfg.trace && cycle%2 == 1
		for k, in := range cells {
			t := time.Now()
			res, err := solveOp(in, variantsOf[k], d.eps, traced)
			o := op{latMs: msSince(t)}
			cellMs[names[k]] = append(cellMs[names[k]], o.latMs)
			if o.latMs >= durMs(deadline) {
				slow[names[k]]++
			}
			if err != nil {
				rec.fail(o, err)
				continue
			}
			o.firstMs, o.finalMs = o.latMs, o.latMs
			if !rec.check(&o, in, variantsOf[k], res, &lt) {
				continue
			}
			switch {
			case traced:
				led.fold(res.Trace)
				if k >= regular {
					tracedMs += o.latMs
					tracedOps++
				}
			case k >= regular: // cliff ops stay out of the overhead ratio
				plainMs += o.latMs
				plainOps++
			}
			lt.report(res.Report)
			if cfg.trace {
				lt.extraCalls(in, variantsOf[k])
			}
		}
	}
	rec.stop(time.Since(begin))
	rec.notes = append(rec.notes, fmt.Sprintf("deck: %d cells, ε=%g, cliff ops %d", len(d.cells), d.eps, cliffsRun))
	for _, name := range sortedKeys(cellMs) {
		v := cellMs[name]
		rec.notes = append(rec.notes, fmt.Sprintf("cell %-32s %4d ops, p50 %8.2f ms, max %8.2f ms, %d past the deadline", name, len(v), median(v), maxOf(v), slow[name]))
	}
	if tracedOps > 0 && plainOps > 0 {
		rec.layer["trace.overhead_ratio"] = (float64(tracedOps) / tracedMs) / (float64(plainOps) / plainMs)
	}
	lt.fill(rec, led)
	return rec, nil
}

// solveOp is the library workloads' op.
func solveOp(in *ccsched.Instance, v ccsched.Variant, eps float64, traced bool) (*ccsched.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return ccsched.Solve(ctx, in, ccsched.Options{
		Variant: v, Tier: ccsched.TierPTAS, Epsilon: eps,
		FallbackTier: ccsched.TierApprox, Trace: traced,
	})
}

// check runs the output check on an answered op and records it; it
// reports whether the op passed.
func (r *recorder) check(o *op, in *ccsched.Instance, v ccsched.Variant, res *ccsched.Result, lt *layerTotals) bool {
	q, took, err := checkResult(in, v, res)
	lt.validateMs = append(lt.validateMs, float64(took)/float64(time.Millisecond))
	if err != nil {
		r.fail(*o, err)
		return false
	}
	o.quality = q
	o.degraded = res.Degraded
	if res.Degraded {
		lt.overshootMs = append(lt.overshootMs, o.latMs-float64(deadline)/float64(time.Millisecond))
	}
	r.ops = append(r.ops, *o)
	return true
}

// layerTotals accumulates the per-layer figures a library run reports.
type layerTotals struct {
	solves                       int
	guesses, cacheHits, certHits int64
	nodes, pivots, warmHits      int64
	validateMs, overshootMs      []float64
	lowerBoundMs, approxMs       []float64
	deltaMs, rung0Ms, terminalMs []float64
}

func (lt *layerTotals) report(r ccsched.PTASReport) {
	lt.solves++
	lt.guesses += int64(r.Guesses)
	lt.cacheHits += int64(r.CacheHits)
	lt.certHits += int64(r.CertHits)
	lt.nodes += r.BBNodes
	lt.pivots += r.BBPivots
	lt.warmHits += r.WarmHits
}

// extraCalls times the benchmark's own calls into the core and approx
// layers on the op's instance, outside the timed region.
func (lt *layerTotals) extraCalls(in *ccsched.Instance, v ccsched.Variant) {
	t := time.Now()
	if _, err := ccsched.LowerBound(in, v); err == nil {
		lt.lowerBoundMs = append(lt.lowerBoundMs, msSince(t))
	}
	t = time.Now()
	if _, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: v, Tier: ccsched.TierApprox}); err == nil {
		lt.approxMs = append(lt.approxMs, msSince(t))
	}
}

// fill writes the per-layer metrics.
func (lt *layerTotals) fill(r *recorder, led *ledger) {
	L := r.layer
	L["core.validate_ms"] = median(lt.validateMs)
	L["core.lower_bound_ms"] = median(lt.lowerBoundMs)
	L["approx.solve_ms"] = median(lt.approxMs)
	L["ccsched.deadline_overshoot_ms"] = median(lt.overshootMs)
	L["ccsched.delta_ms"] = median(lt.deltaMs)
	L["ccsched.rung0_ms"] = median(lt.rung0Ms)
	L["ccsched.terminal_rung_ms"] = median(lt.terminalMs)
	if lt.solves > 0 {
		n := float64(lt.solves)
		L["ptas.guesses_per_op"] = float64(lt.guesses) / n
		L["ptas.cert_hits_per_op"] = float64(lt.certHits) / n
		L["ilp.nodes_per_op"] = float64(lt.nodes) / n
		L["lp.pivots_per_op"] = float64(lt.pivots) / n
	}
	if lt.guesses > 0 {
		L["ptas.cache_hit_ratio"] = float64(lt.cacheHits) / float64(lt.guesses)
	}
	if lt.nodes > 0 {
		L["ilp.warm_hit_ratio"] = float64(lt.warmHits) / float64(lt.nodes)
		L["lp.pivots_per_node"] = float64(lt.pivots) / float64(lt.nodes)
	}
	if led == nil {
		return
	}
	for metric, span := range map[string]string{
		"ccsched.solve_self_ms":       "solve",
		"ptas.template_build_self_ms": "template_build",
		"ptas.guess_search_self_ms":   "guess_search",
		"ptas.probe_self_ms":          "probe",
		"ptas.seed_window_self_ms":    "seed_window",
		"ptas.binary_search_self_ms":  "binary_search",
		"nfold.augment_self_ms":       "nfold_augment",
		"nfold.bb_self_ms":            "bb",
		"ilp.bb_nodes_self_ms":        "bb_nodes",
		"lp.batch_self_ms":            "lp_batch",
	} {
		L[metric] = led.perTraceMs(span)
	}
	L["ptas.seeded_share"] = share(led.seededSearches, led.searches)
	L["nfold.augment_decides_share"] = share(led.augmentDecided, led.engineProbes)
	L["ilp.budget_exhausted_share"] = share(led.budgetExhausted, led.engineProbes)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
