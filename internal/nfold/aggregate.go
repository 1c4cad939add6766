package nfold

import (
	"context"
	"math"
	"slices"

	"ccsched/internal/ilp"
	"ccsched/internal/trace"
)

// High-multiplicity bricks. The paper's configuration N-fold has one brick
// per class, and classes with the same rounded load get identical bricks:
// a PTAS probe with 200 bricks often has only 2–4 distinct ones. Following
// the high-multiplicity view of Knop, Koutecký, Levin, Mnich and Onn
// ("High-multiplicity N-fold IP via configuration LP") and Goemans and
// Rothvoss (bin packing with few item types), the exact engine first
// solves the aggregated model, with one brick per type, and then splits
// its answer back into one vector per brick:
//
//   - Bricks are identical when they share the A and B block by pointer
//     (as Delta keys them) and have equal local right-hand sides, bounds
//     and objective. A group of k of them becomes one brick y = Σ x_i with
//     the same blocks, local rows B·y = k·b and bounds k·l ≤ y ≤ k·u'.
//   - u' is u tightened by every local row whose coefficients are all ≥ 0
//     and whose support has l ≥ 0: each brick's own row caps x_j at
//     ⌊(b_r − Σ_{i≠j} B_ri·l_i) / B_rj⌋. Without it the aggregated model
//     can buy one large module for two bricks that each need a small one,
//     and its answer does not split.
//   - Every point of the full model sums to a point of the aggregated one,
//     so the aggregated model is a relaxation: its Infeasible is sound. Its
//     Farkas ray, copied to every brick of each group, has the same y·b
//     and the same per-column prices as the aggregated ray; it proves the
//     full problem infeasible unless the tightened bounds were needed, so
//     it is kept only when CertifiesInfeasible accepts it.
//   - A Feasible answer is split per group (splitGroup) and the split is
//     checked exactly against the full problem. When the split fails, or
//     the aggregated run ends Unknown, the full model runs with the nodes
//     that remain: a probe never spends more than MaxNodes.

// Aggregation outcomes, recorded on the probe's bb span as agg_outcome.
const (
	aggOff      = iota // no two bricks match: the full model ran alone
	aggRejected        // the aggregated model proved the problem infeasible
	aggSplit           // the aggregated answer split into a checked solution
	aggFallback        // the full model ran after the aggregated run
)

// splitBudget caps the search nodes of splitGroup per brick.
const splitBudget = 1 << 12

// aggregation is p with its identical bricks merged: brick g of q stands
// for the bricks members[g] of p, in increasing order, whose tightened
// upper bound u' is tight[g].
type aggregation struct {
	q       *Problem
	members [][]int
	tight   [][]int64
}

// aggregate groups p's identical bricks. It returns nil when no two bricks
// match or when a scaled right-hand side or bound would overflow int64.
func (p *Problem) aggregate() *aggregation {
	if p.N < 2 {
		return nil
	}
	type key struct {
		a, b *[]int64
		h    uint64
	}
	buckets := make(map[key][]int)
	var members [][]int
	for i := 0; i < p.N; i++ {
		k := key{h: p.brickHash(i)}
		if p.R > 0 {
			k.a = &p.A[i][0]
		}
		if p.S > 0 {
			k.b = &p.B[i][0]
		}
		g := -1
		for _, c := range buckets[k] {
			if p.compareData(members[c][0], i) == 0 {
				g = c
				break
			}
		}
		if g < 0 {
			g = len(members)
			members = append(members, nil)
			buckets[k] = append(buckets[k], g)
		}
		members[g] = append(members[g], i)
	}
	if len(members) == p.N {
		return nil
	}
	// Order the types by multiplicity, then content, so that the
	// aggregated model, and with it the answer, does not depend on the
	// order of the bricks.
	slices.SortStableFunc(members, func(a, b []int) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return p.compareBricks(a[0], b[0])
	})
	ag := &aggregation{members: members, tight: make([][]int64, len(members))}
	q := &Problem{N: len(members), R: p.R, S: p.S, T: p.T, GlobalRHS: p.GlobalRHS}
	for g, mem := range members {
		i, k := mem[0], int64(len(mem))
		ag.tight[g] = p.tightUpper(i)
		rhs, ok1 := scaled(p.LocalRHS[i], k)
		lo, ok2 := scaled(p.Lower[i], k)
		up, ok3 := scaled(ag.tight[g], k)
		if !ok1 || !ok2 || !ok3 {
			return nil
		}
		q.A = append(q.A, p.A[i])
		q.B = append(q.B, p.B[i])
		q.LocalRHS = append(q.LocalRHS, rhs)
		q.Lower = append(q.Lower, lo)
		q.Upper = append(q.Upper, up)
		q.Obj = append(q.Obj, p.Obj[i])
	}
	ag.q = q
	return ag
}

// brickHash mixes brick i's right-hand side, bounds and objective.
func (p *Problem) brickHash(i int) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [4][]int64{p.LocalRHS[i], p.Lower[i], p.Upper[i], p.Obj[i]} {
		for _, v := range s {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	return h
}

// compareData orders bricks by right-hand side, bounds and objective.
func (p *Problem) compareData(i, j int) int {
	for _, c := range [4][2][]int64{
		{p.LocalRHS[i], p.LocalRHS[j]}, {p.Lower[i], p.Lower[j]},
		{p.Upper[i], p.Upper[j]}, {p.Obj[i], p.Obj[j]},
	} {
		if d := slices.Compare(c[0], c[1]); d != 0 {
			return d
		}
	}
	return 0
}

// compareBricks orders bricks by compareData, then block contents.
func (p *Problem) compareBricks(i, j int) int {
	if d := p.compareData(i, j); d != 0 {
		return d
	}
	rows := func(a, b []int64) int { return slices.Compare(a, b) }
	if d := slices.CompareFunc(p.A[i], p.A[j], rows); d != 0 {
		return d
	}
	return slices.CompareFunc(p.B[i], p.B[j], rows)
}

// scaled returns k·s, or false when a product overflows.
func scaled(s []int64, k int64) ([]int64, bool) {
	out := make([]int64, len(s))
	for j, v := range s {
		if out[j] = v * k; out[j]/k != v {
			return nil, false
		}
	}
	return out, true
}

// tightUpper returns brick i's upper bounds tightened by its nonnegative
// local rows (see the package comment above); a column whose cap falls
// below its lower bound keeps the lower bound, and the row then refutes
// the brick in the LP. The result aliases p.Upper[i] when nothing
// tightens.
func (p *Problem) tightUpper(i int) []int64 {
	lo, out := p.Lower[i], p.Upper[i]
	copied := false
rows:
	for r, row := range p.B[i] {
		var base int64
		for j, v := range row {
			if v < 0 || (v > 0 && lo[j] < 0) {
				continue rows
			}
			if v == 0 {
				continue
			}
			prod := v * lo[j]
			if prod/v != lo[j] || base > math.MaxInt64-prod {
				continue rows
			}
			base += prod
		}
		slack := p.LocalRHS[i][r] - base
		if base > 0 && slack > p.LocalRHS[i][r] {
			continue // b_r − base underflowed
		}
		for j, v := range row {
			if v == 0 {
				continue
			}
			cap := max(lo[j], lo[j]+floorDiv(slack, v))
			if cap >= out[j] {
				continue
			}
			if !copied {
				out, copied = slices.Clone(out), true
			}
			out[j] = cap
		}
	}
	return out
}

// floorDiv is ⌊a/d⌋ for d > 0.
func floorDiv(a, d int64) int64 {
	q := a / d
	if a%d != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv is ⌈a/d⌉ for d > 0.
func ceilDiv(a, d int64) int64 { return -floorDiv(-a, d) }

// fullRay copies the aggregated ray to every brick of each group and keeps
// it only if it certifies p infeasible. Nil stays nil.
func (ag *aggregation) fullRay(p *Problem, ray []float64) []float64 {
	if ray == nil {
		return nil
	}
	out := make([]float64, p.R+p.N*p.S)
	copy(out, ray[:p.R])
	for g, mem := range ag.members {
		for _, i := range mem {
			copy(out[p.R+i*p.S:p.R+(i+1)*p.S], ray[p.R+g*p.S:p.R+(g+1)*p.S])
		}
	}
	if !p.CertifiesInfeasible(out) {
		return nil
	}
	return out
}

// split turns an aggregated solution into one for p, checked exactly, or
// returns false.
func (ag *aggregation) split(p *Problem, y [][]int64) ([][]int64, bool) {
	x := make([][]int64, p.N)
	for g, mem := range ag.members {
		if len(mem) == 1 {
			x[mem[0]] = y[g]
			continue
		}
		if !p.splitGroup(mem, y[g], ag.tight[g], x) {
			return nil, false
		}
	}
	return x, p.Check(x) == nil
}

// splitGroup splits the group total y over the identical bricks mem,
// writing x[i] for each; up is their tightened upper bound u'. Columns no
// local row touches are filled greedily. The others are set per brick by a
// bounded search (splitter.fill) that tries the even share first and keeps
// what is left inside (k−n)·[l, u'] for the k−n bricks after it; the last
// brick takes the rest. It reports false when a search fails within its
// budget or the magnitudes risk overflow.
func (p *Problem) splitGroup(mem []int, y, up []int64, x [][]int64) bool {
	i0, k := mem[0], int64(len(mem))
	blk, lo, b := p.B[i0], p.Lower[i0], p.LocalRHS[i0]
	var touched []int
	free := make([]bool, p.T)
	for j := range free {
		free[j] = true
		for _, row := range blk {
			if row[j] != 0 {
				touched = append(touched, j)
				free[j] = false
				break
			}
		}
	}
	if !splitSafe(blk, b, lo, up, k) {
		return false
	}
	rest := slices.Clone(y)
	sp := newSplitter(blk, touched)
	for n, i := range mem {
		left := k - int64(n) // bricks not yet filled, i included
		if left == 1 {
			x[i] = rest
			break
		}
		xi := make([]int64, p.T)
		for j := range xi {
			if free[j] {
				xi[j] = min(up[j], rest[j]-(left-1)*lo[j])
			}
		}
		if !sp.fill(xi, rest, lo, up, b, left) {
			return false
		}
		for j := range rest {
			rest[j] -= xi[j]
		}
		x[i] = xi
	}
	return true
}

// splitSafe reports whether every value the split forms stays far inside
// int64: each bound of the group, k·l and k·u', within 2^60 in magnitude,
// and per local row |k·b_r| + Σ_j |B_rj|·max(|k·l_j|, |k·u'_j|) below 2^61.
func splitSafe(blk [][]int64, b, lo, up []int64, k int64) bool {
	const limit = int64(1) << 60
	mag := make([]int64, len(lo))
	for j := range lo {
		if abs64(lo[j]) > limit/k || abs64(up[j]) > limit/k {
			return false
		}
		mag[j] = k * max(abs64(lo[j]), abs64(up[j]))
	}
	for r, row := range blk {
		if abs64(b[r]) > limit/k {
			return false
		}
		total := k * abs64(b[r])
		for j, c := range row {
			if c == 0 {
				continue
			}
			c = abs64(c)
			if c < 0 || mag[j] > 2*limit/c || total > 2*limit-c*mag[j] {
				return false
			}
			total += c * mag[j]
		}
	}
	return true
}

// splitter is the bounded depth-first search that sets one brick's touched
// columns: B·x = b inside a box per column, values nearest the even share
// first.
type splitter struct {
	blk    [][]int64
	cols   []int
	lo, hi []int64   // the box, per position in cols
	pref   []int64   // the even share, per position
	sufMin [][]int64 // [pos][row]: least Σ_{c ≥ pos} B_r,cols[c]·x over the box
	sufMax [][]int64
	resid  []int64
	x      []int64
	budget int
}

func newSplitter(blk [][]int64, cols []int) *splitter {
	nc := len(cols)
	s := &splitter{
		blk: blk, cols: cols, lo: make([]int64, nc), hi: make([]int64, nc), pref: make([]int64, nc),
		sufMin: make([][]int64, nc+1), sufMax: make([][]int64, nc+1), resid: make([]int64, len(blk)),
	}
	for c := range s.sufMin {
		s.sufMin[c], s.sufMax[c] = make([]int64, len(blk)), make([]int64, len(blk))
	}
	return s
}

// fill sets xi's touched columns so that B·xi = b, l ≤ xi ≤ up and
// rest − xi stays inside (left−1)·[l, up]. It reports false when no such
// point turns up within splitBudget nodes.
func (s *splitter) fill(xi, rest, lo, up, b []int64, left int64) bool {
	nc := len(s.cols)
	for c, j := range s.cols {
		s.lo[c] = max(lo[j], rest[j]-(left-1)*up[j])
		s.hi[c] = min(up[j], rest[j]-(left-1)*lo[j])
		if s.lo[c] > s.hi[c] {
			return false
		}
		s.pref[c] = min(max(floorDiv(rest[j], left), s.lo[c]), s.hi[c])
	}
	for c := nc - 1; c >= 0; c-- {
		j := s.cols[c]
		for r, row := range s.blk {
			a, z := row[j]*s.lo[c], row[j]*s.hi[c]
			s.sufMin[c][r] = s.sufMin[c+1][r] + min(a, z)
			s.sufMax[c][r] = s.sufMax[c+1][r] + max(a, z)
		}
	}
	copy(s.resid, b)
	s.x, s.budget = xi, splitBudget
	return s.dfs(0)
}

// dfs sets the columns from position pos on. A value is tried only if the
// box sums of the columns after it can still meet every row, and values
// nearer the even share are tried first.
func (s *splitter) dfs(pos int) bool {
	if pos == len(s.cols) {
		for _, v := range s.resid {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if s.budget--; s.budget < 0 {
		return false
	}
	j := s.cols[pos]
	vlo, vhi := s.lo[pos], s.hi[pos]
	for r, row := range s.blk {
		// c·v must lie in [resid − sufMax, resid − sufMin] of the columns
		// after pos.
		c := row[j]
		a, z := s.resid[r]-s.sufMax[pos+1][r], s.resid[r]-s.sufMin[pos+1][r]
		switch {
		case c > 0:
			vlo, vhi = max(vlo, ceilDiv(a, c)), min(vhi, floorDiv(z, c))
		case c < 0:
			vlo, vhi = max(vlo, ceilDiv(-z, -c)), min(vhi, floorDiv(-a, -c))
		}
	}
	pref := min(max(s.pref[pos], vlo), vhi)
	for d := int64(0); pref-d >= vlo || pref+d <= vhi; d++ {
		for _, v := range [2]int64{pref + d, pref - d} {
			if v < vlo || v > vhi {
				continue
			}
			s.set(j, v)
			if s.dfs(pos + 1) {
				return true
			}
			s.set(j, -v)
			if s.budget < 0 {
				return false
			}
			if d == 0 {
				break
			}
		}
	}
	return false
}

// set adds v to column j and takes its effect off the residuals;
// set(j, −v) undoes set(j, v).
func (s *splitter) set(j int, v int64) {
	s.x[j] += v
	for r, row := range s.blk {
		s.resid[r] -= row[j] * v
	}
}

// solveBranchBound runs the exact engine over p's brick types (see the
// package comment above) and falls back to the full model when the
// aggregated answer does not settle the probe. Every run records under one
// bb span, which ends with the final ilp status, the summed counters and
// the aggregation's group count and outcome.
func (p *Problem) solveBranchBound(ctx context.Context, maxNodes int, firstFeasible, augment bool, o *Options) (*Result, error) {
	if err := p.validate(ctx); err != nil {
		return nil, err
	}
	ag := p.aggregate()
	sp := o.Trace.Child("bb")
	run := func(q *Problem, budget int) (bbRun, error) {
		return q.runBranchBound(ctx, budget, firstFeasible, augment, o, sp)
	}
	var out, agg bbRun
	var err error
	outcome, groups := aggOff, 0
	if ag == nil {
		out, err = run(p, maxNodes)
	} else {
		groups = ag.q.N
		agg, err = run(ag.q, maxNodes)
		out, outcome = agg, aggFallback
		if err == nil {
			switch agg.res.Status {
			case Infeasible:
				outcome = aggRejected
				out.res.InfeasibleRay = ag.fullRay(p, agg.res.InfeasibleRay)
			case Feasible:
				if x, ok := ag.split(p, agg.res.X); ok {
					outcome = aggSplit
					out.res.X, out.res.Obj = x, p.Objective(x)
				}
			}
		}
		if err == nil && outcome == aggFallback {
			out = bbRun{res: &Result{Status: Unknown, Engine: EngineBranchBound}, status: ilp.NodeLimit}
			if left := maxNodes - agg.nodes; left > 0 {
				out, err = run(p, left)
			}
			if err == nil {
				out.add(agg)
			}
		}
	}
	if err != nil {
		sp.End(trace.A("err", 1))
		return nil, err
	}
	sp.End(
		trace.A("status", int64(out.status)), trace.A("nodes", int64(out.nodes)),
		trace.A("pivots", int64(out.res.Pivots)), trace.A("warm_hits", int64(out.res.WarmHits)),
		trace.A("agg_groups", int64(groups)), trace.A("agg_outcome", int64(outcome)),
	)
	return out.res, nil
}

// add folds an earlier run's work into r's counters.
func (r *bbRun) add(e bbRun) {
	r.nodes += e.nodes
	r.res.Nodes += e.res.Nodes
	r.res.Pivots += e.res.Pivots
	r.res.WarmHits += e.res.WarmHits
}
