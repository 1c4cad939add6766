package nfold

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"ccsched/internal/trace"
)

// aggregateProblem draws a small N-fold whose bricks come from at most
// three types. A type fixes the A and B blocks (drawn from two of each, so
// types share blocks by pointer too), the right-hand side, the bounds and
// the objective; a brick of the type gets each slice either shared or as
// its own copy. The first B block has nonnegative coefficients, so the
// upper-bound tightening applies. Each type's right-hand side comes from a
// point of its box and the global one from every brick at its type's
// point, so the problem starts feasible; either side is then sometimes
// pushed off by one.
func aggregateProblem(d intner) *Problem {
	n, r, s, t := 2+d.Intn(6), d.Intn(3), 1+d.Intn(2), 2+d.Intn(4)
	block := func(rows int, nonneg bool) [][]int64 {
		blk := make([][]int64, rows)
		for k := range blk {
			blk[k] = make([]int64, t)
			for j := range blk[k] {
				if d.Intn(3) > 0 {
					if nonneg {
						blk[k][j] = int64(d.Intn(4))
					} else {
						blk[k][j] = int64(d.Intn(5) - 2)
					}
				}
			}
		}
		return blk
	}
	as := [][][]int64{block(r, false), block(r, false)}
	bs := [][][]int64{block(s, true), block(s, d.Intn(2) == 0)}
	type brickType struct {
		a, b                [][]int64
		rhs, lo, up, obj, x []int64
	}
	types := make([]brickType, 1+d.Intn(3))
	for ti := range types {
		bt := brickType{a: as[d.Intn(2)], b: bs[d.Intn(2)]}
		bt.lo, bt.up, bt.x = make([]int64, t), make([]int64, t), make([]int64, t)
		bt.obj, bt.rhs = make([]int64, t), make([]int64, s)
		for j := 0; j < t; j++ {
			bt.lo[j] = int64(d.Intn(3) - d.Intn(2))
			bt.up[j] = bt.lo[j] + int64(d.Intn(6))
			bt.x[j] = bt.lo[j] + int64(d.Intn(int(bt.up[j]-bt.lo[j])+1))
			if d.Intn(2) == 0 {
				bt.obj[j] = int64(d.Intn(3))
			}
		}
		for k, row := range bt.b {
			for j, v := range row {
				bt.rhs[k] += v * bt.x[j]
			}
			if d.Intn(8) == 0 {
				bt.rhs[k]++
			}
		}
		types[ti] = bt
	}
	own := func(v []int64) []int64 {
		if d.Intn(2) == 0 {
			return slices.Clone(v)
		}
		return v
	}
	p := &Problem{N: n, R: r, S: s, T: t, GlobalRHS: make([]int64, r)}
	for i := 0; i < n; i++ {
		bt := types[d.Intn(len(types))]
		p.A = append(p.A, bt.a)
		p.B = append(p.B, bt.b)
		p.LocalRHS = append(p.LocalRHS, own(bt.rhs))
		p.Lower = append(p.Lower, own(bt.lo))
		p.Upper = append(p.Upper, own(bt.up))
		p.Obj = append(p.Obj, own(bt.obj))
		for k, row := range bt.a {
			for j, v := range row {
				p.GlobalRHS[k] += v * bt.x[j]
			}
		}
	}
	for k := range p.GlobalRHS {
		if d.Intn(6) == 0 {
			p.GlobalRHS[k] += int64(2*d.Intn(2) - 1)
		}
	}
	return p
}

// compareAggregate solves p through Solve, which aggregates, and through
// the full model alone, under the same node cap. Whenever both decide,
// the verdicts must agree, and so must the optimal objectives of
// EngineBranchBound without FirstFeasible (EngineAuto may return
// augmentation's unproven point when branching runs out of nodes, as it
// did before aggregation). A Feasible X must pass Check, a kept ray must
// certify p, and the probe's bb span must count no more than the cap. It
// returns the aggregation outcome the span recorded and whether a ray was
// kept.
func compareAggregate(t *testing.T, p *Problem, engine Engine, first bool, maxNodes int) (int64, bool) {
	t.Helper()
	c := trace.NewCollector(0)
	root := c.Root("probe")
	got, err := Solve(p, &Options{Engine: engine, FirstFeasible: first, MaxNodes: maxNodes, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	var bb trace.SpanRecord
	for _, sp := range c.Export().Spans {
		if sp.Name == "bb" {
			bb = sp
		}
	}
	if nodes, _ := bb.Attr("nodes"); nodes > int64(maxNodes) {
		t.Fatalf("probe spent %d nodes, cap %d", nodes, maxNodes)
	}
	first = first || (engine == EngineAuto && !hasObjective(p))
	full, err := p.runBranchBound(context.Background(), maxNodes, first, false, &Options{}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	want := full.res
	if got.Status != Unknown && want.Status != Unknown {
		if got.Status != want.Status {
			t.Fatalf("aggregated %v, full model %v", got.Status, want.Status)
		}
		if got.Status == Feasible && !first && engine == EngineBranchBound && got.Obj != want.Obj {
			t.Fatalf("aggregated objective %d, full model %d", got.Obj, want.Obj)
		}
	}
	if got.Status == Feasible {
		if err := p.Check(got.X); err != nil {
			t.Fatal(err)
		}
	}
	if got.InfeasibleRay != nil && !p.CertifiesInfeasible(got.InfeasibleRay) {
		t.Fatalf("kept ray %v does not certify the full problem", got.InfeasibleRay)
	}
	outcome, _ := bb.Attr("agg_outcome")
	return outcome, got.InfeasibleRay != nil
}

// TestAggregateMatchesFull runs compareAggregate on random N-folds with
// repeated bricks and requires the draw to reach every outcome and to keep
// some aggregated rays.
func TestAggregateMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var outcomes [4]int
	rays := 0
	for it := 0; it < 3000; it++ {
		engine := EngineBranchBound
		if it%3 == 0 {
			engine = EngineAuto
		}
		o, ray := compareAggregate(t, aggregateProblem(rng), engine, it%2 == 0, 1+rng.Intn(60))
		outcomes[o]++
		if ray && o == aggRejected {
			rays++
		}
	}
	t.Logf("outcomes (off, rejected, split, fallback): %v; %d aggregated rays kept", outcomes, rays)
	for o, n := range outcomes {
		if n == 0 {
			t.Errorf("no probe ended with outcome %d: %v", o, outcomes)
		}
	}
	if rays == 0 {
		t.Error("no aggregated ray was kept")
	}
}

// TestAggregateTightensModules is the case the tightening exists for: two
// identical bricks each need 8 units from modules of size 8 or 16. Without
// the cap u'_16 = ⌊8/16⌋ = 0 the aggregated model could buy one size-16
// module for both, which no split turns into two brick solutions.
func TestAggregateTightensModules(t *testing.T) {
	p := NewUniform(2, [][]int64{{1, 1}}, [][]int64{{8, 16}})
	p.GlobalRHS[0] = 2
	for i := range 2 {
		p.LocalRHS[i][0] = 8
		p.Upper[i][0], p.Upper[i][1] = 4, 4
	}
	ag := p.aggregate()
	if ag == nil || ag.q.N != 1 {
		t.Fatal("the two bricks were not grouped")
	}
	if got := ag.q.Upper[0]; got[0] != 2 || got[1] != 0 {
		t.Fatalf("aggregated upper bounds %v, want [2 0]", got)
	}
	res, spans := tracedAuto(t, p)
	bb, _ := engineSpans(t, spans)
	if o, _ := bb.Attr("agg_outcome"); res.Status != Feasible || o != aggSplit {
		t.Fatalf("status %v, outcome %d; want a split feasible answer", res.Status, o)
	}
	if err := p.Check(res.X); err != nil {
		t.Fatal(err)
	}
}

// TestTightUpper pins the tightening: only rows with nonnegative
// coefficients over a nonnegative lower bound tighten, a cap never falls
// below the lower bound, and an untightened brick aliases its bounds.
func TestTightUpper(t *testing.T) {
	p := NewUniform(1, nil, [][]int64{{2, 3, 0}, {1, -1, 0}})
	p.LocalRHS[0] = []int64{7, 0}
	p.Lower[0] = []int64{0, 1, 0}
	p.Upper[0] = []int64{9, 9, 9}
	if got := p.tightUpper(0); !slices.Equal(got, []int64{2, 2, 9}) {
		t.Errorf("tightened %v, want [2 2 9]", got)
	}
	p.LocalRHS[0][0] = 1 // below 3·l_1: each cap stays at its lower bound
	if got := p.tightUpper(0); !slices.Equal(got, []int64{0, 1, 9}) {
		t.Errorf("tightened %v, want [0 1 9]", got)
	}
	q := NewUniform(1, nil, [][]int64{{1, 1}})
	q.LocalRHS[0][0] = 1
	q.Lower[0] = []int64{-1, 0}
	q.Upper[0] = []int64{5, 5}
	if got := q.tightUpper(0); &got[0] != &q.Upper[0][0] {
		t.Errorf("row over a negative lower bound tightened to %v", got)
	}
}

// FuzzAggregate is TestAggregateMatchesFull driven by fuzz bytes.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 1, 2, 0, 1, 3, 0, 2, 1, 0, 1, 2, 3, 1, 0, 4, 2, 1, 0, 1, 1})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 128)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDraws(data)
		engine := EngineBranchBound
		if d.Intn(3) == 0 {
			engine = EngineAuto
		}
		first, maxNodes := d.Intn(2) == 0, 1+d.Intn(60)
		compareAggregate(t, aggregateProblem(&d), engine, first, maxNodes)
	})
}
