package nfold

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ccsched/internal/ilp"
	"ccsched/internal/lp"
	"ccsched/internal/testutil"
)

// TestFlattenCanceled checks that Flatten stops on a canceled context, both
// before the first brick and between bricks.
func TestFlattenCanceled(t *testing.T) {
	p := buildSharedBlockProblem(5)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"first brick":    canceled,
		"between bricks": testutil.CancelAfter(3),
	} {
		if mp, _, err := p.Flatten(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Flatten returned (%v, %v), want context.Canceled", name, mp, err)
		}
	}
	if _, _, err := p.Flatten(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// flattenOracle is Flatten without the dead-row presolve: every local row
// is emitted, in the full row order. The presolve tests compare against it.
func flattenOracle(p *Problem) *ilp.Problem {
	nv := p.N * p.T
	mp := ilp.NewProblem(nv)
	m := p.R + p.N*p.S
	mp.Rel = make([]lp.Relation, m)
	mp.B = make([]float64, m)
	for k := 0; k < m; k++ {
		mp.Rel[k] = lp.EQ
	}
	for k := 0; k < p.R; k++ {
		mp.B[k] = float64(p.GlobalRHS[k])
	}
	brickRows := func(i int, visit func(row int32, coef []int64)) {
		for k, coef := range p.A[i] {
			visit(int32(k), coef)
		}
		for k, coef := range p.B[i] {
			visit(int32(p.R+i*p.S+k), coef)
		}
	}
	start := make([]int, nv+1)
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.T; j++ {
			f := i*p.T + j
			mp.Obj[f] = float64(p.Obj[i][j])
			mp.Lower[f] = float64(p.Lower[i][j])
			mp.Upper[f] = float64(p.Upper[i][j])
		}
		for k := 0; k < p.S; k++ {
			mp.B[p.R+i*p.S+k] = float64(p.LocalRHS[i][k])
		}
		brickRows(i, func(_ int32, coef []int64) {
			for j, v := range coef {
				if v != 0 {
					start[i*p.T+j+1]++
				}
			}
		})
	}
	for f := 0; f < nv; f++ {
		start[f+1] += start[f]
	}
	rows := make([]int32, start[nv])
	vals := make([]float64, start[nv])
	next := append([]int(nil), start[:nv]...)
	for i := 0; i < p.N; i++ {
		brickRows(i, func(row int32, coef []int64) {
			for j, v := range coef {
				if v != 0 {
					f := i*p.T + j
					rows[next[f]], vals[next[f]] = row, float64(v)
					next[f]++
				}
			}
		})
	}
	for f := range mp.Cols {
		a, b := start[f], start[f+1]
		mp.Cols[f] = lp.Column{Rows: rows[a:b:b], Vals: vals[a:b:b]}
	}
	return mp
}

// intner is the source of random choices for presolveProblem: a
// *rand.Rand in the property test, the fuzz bytes in the fuzz target.
type intner interface{ Intn(n int) int }

// fuzzDraws reads choices from fuzz bytes; an exhausted input reads 0.
type fuzzDraws []byte

func (d *fuzzDraws) Intn(n int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

// presolveProblem draws a small N-fold whose bricks share A and B blocks by
// pointer and whose bounds fix random columns, often a whole local row's
// support. The right-hand sides come from a random point of the box, so
// the problem starts feasible and every fixed row's sum matches; a random
// subset of rows (fixed or not) is then pushed off by one.
func presolveProblem(d intner) *Problem {
	n, r, s, t := 1+d.Intn(4), d.Intn(3), 1+d.Intn(3), 2+d.Intn(4)
	block := func(rows int) [][]int64 {
		blk := make([][]int64, rows)
		for k := range blk {
			blk[k] = make([]int64, t)
			for j := range blk[k] {
				if d.Intn(2) == 0 {
					blk[k][j] = int64(d.Intn(5) - 2)
				}
			}
		}
		return blk
	}
	as := [][][]int64{block(r), block(r)}
	bs := [][][]int64{block(s), block(s)}
	p := &Problem{N: n, R: r, S: s, T: t, GlobalRHS: make([]int64, r)}
	x := make([][]int64, n)
	for i := 0; i < n; i++ {
		a, b := as[d.Intn(2)], bs[d.Intn(2)]
		lo, up := make([]int64, t), make([]int64, t)
		x[i] = make([]int64, t)
		fixRow := -1
		if d.Intn(2) == 0 {
			fixRow = d.Intn(s)
		}
		for j := 0; j < t; j++ {
			lo[j] = int64(d.Intn(2))
			up[j] = lo[j] + int64(d.Intn(4))
			if d.Intn(3) == 0 || (fixRow >= 0 && b[fixRow][j] != 0) {
				up[j] = lo[j]
			}
			x[i][j] = lo[j] + int64(d.Intn(int(up[j]-lo[j])+1))
		}
		p.A = append(p.A, a)
		p.B = append(p.B, b)
		p.Lower = append(p.Lower, lo)
		p.Upper = append(p.Upper, up)
		obj := make([]int64, t)
		if d.Intn(2) == 0 {
			for j := range obj {
				obj[j] = int64(d.Intn(3))
			}
		}
		p.Obj = append(p.Obj, obj)
		rhs := make([]int64, s)
		for k, row := range b {
			for j, v := range row {
				rhs[k] += v * x[i][j]
			}
			if d.Intn(6) == 0 {
				rhs[k] += int64(2*d.Intn(2) - 1)
			}
		}
		p.LocalRHS = append(p.LocalRHS, rhs)
		for k, row := range a {
			for j, v := range row {
				p.GlobalRHS[k] += v * x[i][j]
			}
		}
	}
	for k := range p.GlobalRHS {
		if d.Intn(6) == 0 {
			p.GlobalRHS[k]++
		}
	}
	return p
}

// presolveOutcome is what comparePresolve learned about one problem.
type presolveOutcome struct {
	dropped, rays int
}

// comparePresolve solves p's presolved and oracle flattenings with the same
// branch-and-bound options and requires the same answer, tree and pivots.
// The presolved ray, expanded to the full row order, must equal the
// oracle's on every kept row, and must certify p infeasible whenever the
// oracle's does. (On a dead row the oracle's phase-1 ray carries 1, the
// expanded ray 0; the row holds on the whole box, so neither moves the
// Farkas inequality.)
func comparePresolve(t *testing.T, p *Problem, first bool) presolveOutcome {
	t.Helper()
	mp, full, err := p.Flatten(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := p.R + p.N*p.S
	if len(full) != len(mp.B) || !slices.IsSorted(full) || (len(full) > 0 && int(full[len(full)-1]) >= m) {
		t.Fatalf("row map %v does not index %d of %d rows in order", full, len(mp.B), m)
	}
	for k := 0; k < p.R; k++ {
		if full[k] != int32(k) {
			t.Fatalf("global row %d mapped to %d", k, full[k])
		}
	}
	opts := &ilp.Options{MaxNodes: 300, FirstFeasible: first}
	got, err := ilp.SolveCtx(context.Background(), mp, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ilp.SolveCtx(context.Background(), flattenOracle(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || !slices.Equal(got.X, want.X) || got.Obj != want.Obj ||
		got.Nodes != want.Nodes || got.Pivots != want.Pivots || got.WarmHits != want.WarmHits {
		t.Fatalf("presolved %v X=%v obj=%v nodes=%d pivots=%d warm=%d, oracle %v X=%v obj=%v nodes=%d pivots=%d warm=%d",
			got.Status, got.X, got.Obj, got.Nodes, got.Pivots, got.WarmHits,
			want.Status, want.X, want.Obj, want.Nodes, want.Pivots, want.WarmHits)
	}
	if (got.InfeasibleRay == nil) != (want.InfeasibleRay == nil) {
		t.Fatalf("presolved ray %v, oracle ray %v", got.InfeasibleRay, want.InfeasibleRay)
	}
	ray := expandRay(got.InfeasibleRay, full, m)
	for _, row := range full {
		if ray != nil && ray[row] != want.InfeasibleRay[row] {
			t.Fatalf("ray row %d: presolved %v, oracle %v", row, ray[row], want.InfeasibleRay[row])
		}
	}
	if want.InfeasibleRay != nil && p.CertifiesInfeasible(want.InfeasibleRay) && !p.CertifiesInfeasible(ray) {
		t.Fatalf("oracle ray %v certifies, expanded ray %v does not", want.InfeasibleRay, ray)
	}
	out := presolveOutcome{dropped: m - len(full)}
	if ray != nil {
		out.rays = 1
	}
	return out
}

// TestFlattenPresolveMatchesOracle checks the dead-row presolve against
// the unpresolved flattening on random N-folds, and that the draw really
// exercises dropped rows and root infeasibility rays.
func TestFlattenPresolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var total presolveOutcome
	for it := 0; it < 3000; it++ {
		o := comparePresolve(t, presolveProblem(rng), it%2 == 0)
		total.dropped += o.dropped
		total.rays += o.rays
	}
	if total.dropped == 0 || total.rays == 0 {
		t.Fatalf("draw exercised %d dropped rows and %d rays; want both > 0", total.dropped, total.rays)
	}
}

// TestDeadLocalRow pins the dead-row test: the fixed sum must match the
// right-hand side exactly, any free column in the support keeps the row,
// and an overflowing sum keeps it too.
func TestDeadLocalRow(t *testing.T) {
	p := NewUniform(1, nil, [][]int64{{2, 0, -1}})
	p.Lower[0] = []int64{3, 0, 1}
	p.Upper[0] = []int64{3, 5, 1}
	for rhs, dead := range map[int64]bool{5: true, 4: false, 6: false} {
		p.LocalRHS[0][0] = rhs
		if got := p.deadLocalRow(0, 0); got != dead {
			t.Errorf("rhs %d: dead = %v, want %v", rhs, got, dead)
		}
	}
	p.LocalRHS[0][0] = 5
	p.Upper[0][2] = 2
	if p.deadLocalRow(0, 0) {
		t.Error("row with a free column reported dead")
	}
	const big = int64(1) << 62
	q := NewUniform(1, nil, [][]int64{{4, 1}})
	q.Lower[0] = []int64{big, 0}
	q.Upper[0] = []int64{big, 0}
	q.LocalRHS[0][0] = 0 // 4·2^62 wraps to 0 in int64
	if q.deadLocalRow(0, 0) {
		t.Error("overflowing fixed sum reported dead")
	}
	r := NewUniform(1, nil, [][]int64{{1 << 62, 1 << 62}})
	r.Lower[0] = []int64{1, 1}
	r.Upper[0] = []int64{1, 1}
	r.LocalRHS[0][0] = math.MinInt64 // 2^62 + 2^62 wraps to MinInt64
	if r.deadLocalRow(0, 0) {
		t.Error("overflowing sum of products reported dead")
	}
}

// FuzzFlattenPresolve is TestFlattenPresolveMatchesOracle driven by fuzz
// bytes instead of a seeded generator.
func FuzzFlattenPresolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 2, 3, 1, 0, 1, 2, 0, 4, 1, 3, 0, 1, 0, 2, 1, 1, 0, 0, 2, 1})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDraws(data)
		first := d.Intn(2) == 0
		comparePresolve(t, presolveProblem(&d), first)
	})
}
