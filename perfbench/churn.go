package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ccsched"
)

// churnGen is the session-churn base instance: the churn instance of the
// session benchmarks (uniform, n=1000, 100 classes, 50 machines, generator
// seed 101). The run's --seed drives the delta stream. Base instances of
// other generator seeds can be pathological (every re-solve runs to the
// deadline), which would make the figures depend on one draw.
var churnGen = ccsched.GeneratorConfig{N: 1000, Classes: 100, Machines: 50, Slots: 3, PMax: 10000, Seed: 101}

// churnVariants are the variants with a TierPTAS session. Preemptive is
// left out: its first solve at this size runs for minutes on some seeds
// (see NOTES.md).
var churnVariants = []ccsched.Variant{ccsched.Splittable, ccsched.NonPreemptive}

// churnSession is one live session of the session-churn workload.
type churnSession struct {
	name    string
	sess    *ccsched.Session
	ladder  *ccsched.Ladder // anytime session only
	variant ccsched.Variant
	rounds  int
	latMs   []float64 // per-op latencies, for the per-session report line
	slow    int       // ops past the deadline
	p       []int64   // current sizes, parallel to ids
	ids     []int64
}

// newChurnSessions builds the sessions on base and runs their first
// solves: one TierPTAS ε=1 session per churnVariants entry, plus one
// TierAnytime splittable session stepped towards its terminal rung.
func newChurnSessions(base *ccsched.Instance, traced bool) ([]*churnSession, error) {
	var out []*churnSession
	for _, v := range churnVariants {
		s, err := ccsched.NewSession(base, ccsched.Options{
			Variant: v, Tier: ccsched.TierPTAS, Epsilon: 1, FallbackTier: ccsched.TierApprox, Trace: traced,
		})
		if err != nil {
			return nil, err
		}
		// The first solve gets the ops' deadline and fallback too: some
		// seeds' instances take minutes (NOTES.md, cliff 4).
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, err = s.Solve(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("first solve (%v): %w", v, err)
		}
		out = append(out, &churnSession{name: "ptas/" + v.String(), sess: s, variant: v})
	}
	s, err := ccsched.NewSession(base, ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 1})
	if err != nil {
		return nil, err
	}
	cs := &churnSession{name: "anytime/splittable", sess: s, ladder: ccsched.NewLadder(s), variant: ccsched.Splittable}
	// The first descent gets the ops' deadline: its terminal rung can run
	// for minutes. A rung cut off here stays at rung 0 until the first op.
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if _, _, err := cs.ladder.Step(ctx); err != nil {
		return nil, fmt.Errorf("first ladder: %w", err)
	}
	for done := false; !done && ctx.Err() == nil; {
		_, done, _ = cs.ladder.Step(ctx)
	}
	out = append(out, cs)
	for _, c := range out {
		c.p, c.ids = append([]int64(nil), base.P...), c.sess.JobIDs()
	}
	return out, nil
}

// nextDelta draws the session's next round of resize churn: 5% of jobs
// change size by up to ±2%. The draw depends only on the seed, the
// session's index and its round, so a traced twin session receives the
// same stream. NOTES.md says why redraw churn is not in the loop.
func (c *churnSession) nextDelta(seed int64, index int) ([]int64, []int64) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)*7919 + int64(c.rounds)))
	c.rounds++
	var ids, sizes []int64
	for k := 0; k < len(c.ids)/20; k++ {
		pos := rng.Intn(len(c.ids))
		cur := c.p[pos]
		ids = append(ids, c.ids[pos])
		sizes = append(sizes, max(cur+rng.Int63n(2*cur/50+1)-cur/50, 1))
	}
	return ids, sizes
}

// runSessionChurn is a closed loop with one caller over three live
// sessions: each op applies one delta round to the next session and
// re-solves it (Session.Solve with the 2 s deadline and approx fallback,
// or Ladder.Step from rung 0 to the terminal rung for the anytime
// session). With -trace, a second, traced set of sessions receives the same
// delta streams on alternate cycles.
func runSessionChurn(cfg config) (*recorder, error) {
	rec := newRecorder()
	var sets [2][]*churnSession
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the garbage of earlier repetitions is not this one's cost
		t := time.Now()
		base, err := ccsched.Generate("uniform", churnGen)
		if err != nil {
			return nil, err
		}
		if sets[0], err = newChurnSessions(base, false); err != nil {
			return nil, err
		}
		rec.setups = append(rec.setups, time.Since(t).Seconds())
		if cfg.trace && i == setupReps-1 {
			if sets[1], err = newChurnSessions(base, true); err != nil {
				return nil, err
			}
		}
	}
	led := newLedger()
	var lt layerTotals
	var tracedMs, plainMs float64
	var tracedOps, plainOps int
	rec.start()
	begin := time.Now()
	measure := time.Duration(cfg.seconds * float64(time.Second))
	for cycle := 0; time.Since(begin) < measure; cycle++ {
		set, traced := sets[0], false
		if cfg.trace && cycle%2 == 1 {
			set, traced = sets[1], true
		}
		for k, c := range set {
			ids, sizes := c.nextDelta(cfg.seed, k)
			o, res, err := c.op(ids, sizes, &lt)
			c.latMs = append(c.latMs, o.latMs)
			if o.latMs >= durMs(deadline) {
				c.slow++
			}
			if err != nil {
				rec.fail(o, err)
				continue
			}
			in := c.sess.Instance()
			c.p, c.ids = in.P, c.sess.JobIDs()
			if err := checkEarlier(in, c.variant, res[:len(res)-1]); err != nil {
				rec.fail(o, err)
				continue
			}
			last := res[len(res)-1]
			if !rec.check(&o, in, c.variant, last, &lt) {
				continue
			}
			if c.ladder != nil {
				continue
			}
			lt.report(last.Report)
			if traced {
				tracedMs += o.latMs
				tracedOps++
				led.fold(last.Trace)
			} else {
				plainMs += o.latMs
				plainOps++
			}
			if cfg.trace {
				lt.extraCalls(in, c.variant)
			}
		}
	}
	rec.stop(time.Since(begin))
	for _, c := range sets[0] {
		rec.notes = append(rec.notes, fmt.Sprintf("session %s: %d ops, p50 %.1f ms, %d past the deadline", c.name, len(c.latMs), median(c.latMs), c.slow))
	}
	if tracedOps > 0 && plainOps > 0 {
		rec.layer["trace.overhead_ratio"] = (float64(tracedOps) / tracedMs) / (float64(plainOps) / plainMs)
	}
	lt.fill(rec, led)
	return rec, nil
}

// op resizes the jobs ids to sizes through the Session API and re-solves,
// returning the answers in order (rung 0 first for the anytime session).
func (c *churnSession) op(ids, sizes []int64, lt *layerTotals) (op, []*ccsched.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t := time.Now()
	for k, id := range ids {
		if err := c.sess.Resize(id, sizes[k]); err != nil {
			return op{latMs: msSince(t)}, nil, err
		}
	}
	lt.deltaMs = append(lt.deltaMs, msSince(t))
	if c.ladder == nil {
		res, err := c.sess.Solve(ctx)
		return op{latMs: msSince(t)}, []*ccsched.Result{res}, err
	}
	s := time.Now()
	first, done, err := c.ladder.Step(ctx)
	o := op{firstMs: msSince(t)}
	lt.rung0Ms = append(lt.rung0Ms, msSince(s))
	if err != nil || first == nil {
		o.latMs = msSince(t)
		return o, nil, fmt.Errorf("rung 0: %v", err)
	}
	answers := []*ccsched.Result{first}
	for !done {
		s = time.Now()
		var res *ccsched.Result
		res, done, err = c.ladder.Step(ctx)
		if err != nil {
			// The terminal rung missed the deadline: the caller keeps
			// the rung-0 answer, which counts as degraded.
			o.latMs = msSince(t)
			degraded := *first
			degraded.Degraded = true
			return o, []*ccsched.Result{&degraded}, nil
		}
		if done {
			lt.terminalMs = append(lt.terminalMs, msSince(s))
		}
		if res != nil {
			answers = append(answers, res)
		}
	}
	o.latMs = msSince(t)
	o.finalMs = o.latMs
	return o, answers, nil
}

// checkEarlier checks the answers an anytime op published before its last.
func checkEarlier(in *ccsched.Instance, v ccsched.Variant, res []*ccsched.Result) error {
	for _, r := range res {
		if _, _, err := checkResult(in, v, r); err != nil {
			return fmt.Errorf("rung %d answer: %w", r.Anytime.Rung, err)
		}
	}
	return nil
}
