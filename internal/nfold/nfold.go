// Package nfold models N-fold Integer Linear Programs — the block-structured
// ILPs of Section 2 of the paper — and solves them with two engines:
//
//   - an iterative augmentation engine in the spirit of the
//     Hemmecke–Onn–Romanchuk / Jansen–Lassota–Rohwedder line of work: local
//     Graver-style moves per brick are combined across bricks by a dynamic
//     program over partial sums of the globally uniform rows;
//   - an exact engine that flattens the N-fold into a plain MILP and runs
//     the internal/ilp branch-and-bound.
//
// The paper cites the near-linear theoretical algorithm of [Jansen, Lassota,
// Rohwedder 2019], for which no public implementation exists; this package
// is the repository's faithful substitute (see the "Paper-to-code map" of
// docs/ARCHITECTURE.md). The augmentation
// engine is best-effort (its move set restricts Graver elements to bounded
// support). By default Solve lets the exact engine's root LP relaxation
// decide first, tries augmentation only on a fractional root, and verifies
// its answers, so feasibility answers are always exact.
//
// The constraint matrix has the shape
//
//	[ A_1  A_2  ...  A_N ]      r rows   (globally uniform)
//	[ B_1               ]      s rows   (locally uniform, brick 1)
//	[      B_2          ]      s rows
//	[           ...     ]
//	[               B_N ]      s rows
//
// over N bricks of t variables each, with per-variable finite bounds.
package nfold

import (
	"context"
	"fmt"
	"math"
	"math/bits"
)

// Problem is an N-fold ILP  min Obj·x  s.t.  Ax = B0, Lower ≤ x ≤ Upper.
type Problem struct {
	// N is the number of bricks; R, S, T the block dimensions.
	N, R, S, T int
	// A holds the globally uniform blocks: A[i] is the r×t block of brick i.
	A [][][]int64
	// B holds the locally uniform blocks: B[i] is the s×t block of brick i.
	B [][][]int64
	// GlobalRHS is the right-hand side of the r global rows.
	GlobalRHS []int64
	// LocalRHS[i] is the right-hand side of brick i's s local rows.
	LocalRHS [][]int64
	// Lower, Upper bound every variable: [brick][col]. All bounds must be
	// finite (Theorem 1 requires finite bounds).
	Lower, Upper [][]int64
	// Obj is the (minimization) objective per brick variable; may be all
	// zeros for pure feasibility problems.
	Obj [][]int64
}

// NewUniform allocates a problem with N identical bricks sharing the blocks
// a (r×t) and b (s×t). Right-hand sides, bounds and objective start zeroed
// and must be filled by the caller.
func NewUniform(n int, a, b [][]int64) *Problem {
	r, s := len(a), len(b)
	t := 0
	if r > 0 {
		t = len(a[0])
	} else if s > 0 {
		t = len(b[0])
	}
	p := &Problem{N: n, R: r, S: s, T: t, GlobalRHS: make([]int64, r)}
	for i := 0; i < n; i++ {
		p.A = append(p.A, a)
		p.B = append(p.B, b)
		p.LocalRHS = append(p.LocalRHS, make([]int64, s))
		p.Lower = append(p.Lower, make([]int64, t))
		p.Upper = append(p.Upper, make([]int64, t))
		p.Obj = append(p.Obj, make([]int64, t))
	}
	return p
}

// Validate checks the dimensional invariants.
func (p *Problem) Validate() error { return p.validate(context.Background()) }

// validate is Validate polling ctx once per brick.
func (p *Problem) validate(ctx context.Context) error {
	if p.N < 0 || p.R < 0 || p.S < 0 || p.T < 0 {
		return fmt.Errorf("nfold: negative dimension")
	}
	if len(p.A) != p.N || len(p.B) != p.N || len(p.LocalRHS) != p.N ||
		len(p.Lower) != p.N || len(p.Upper) != p.N || len(p.Obj) != p.N {
		return fmt.Errorf("nfold: brick slices must all have length N=%d", p.N)
	}
	if len(p.GlobalRHS) != p.R {
		return fmt.Errorf("nfold: global rhs has %d entries, want %d", len(p.GlobalRHS), p.R)
	}
	for i := 0; i < p.N; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(p.A[i]) != p.R {
			return fmt.Errorf("nfold: brick %d A block has %d rows, want %d", i, len(p.A[i]), p.R)
		}
		for _, row := range p.A[i] {
			if len(row) != p.T {
				return fmt.Errorf("nfold: brick %d A row width %d, want %d", i, len(row), p.T)
			}
		}
		if len(p.B[i]) != p.S {
			return fmt.Errorf("nfold: brick %d B block has %d rows, want %d", i, len(p.B[i]), p.S)
		}
		for _, row := range p.B[i] {
			if len(row) != p.T {
				return fmt.Errorf("nfold: brick %d B row width %d, want %d", i, len(row), p.T)
			}
		}
		if len(p.LocalRHS[i]) != p.S {
			return fmt.Errorf("nfold: brick %d local rhs has %d entries, want %d", i, len(p.LocalRHS[i]), p.S)
		}
		if len(p.Lower[i]) != p.T || len(p.Upper[i]) != p.T || len(p.Obj[i]) != p.T {
			return fmt.Errorf("nfold: brick %d bound/obj width mismatch", i)
		}
		for j := 0; j < p.T; j++ {
			if p.Lower[i][j] > p.Upper[i][j] {
				return fmt.Errorf("nfold: brick %d var %d has lower %d > upper %d",
					i, j, p.Lower[i][j], p.Upper[i][j])
			}
		}
	}
	return nil
}

// Delta returns the largest absolute entry of the constraint matrix — the
// Δ parameter of the paper's Theorem 1 running-time bound. Bricks share
// blocks by pointer, so each distinct block is scanned once.
func (p *Problem) Delta() int64 {
	var d int64
	seen := make(map[*[]int64]bool)
	for i := 0; i < p.N; i++ {
		for _, blk := range [2][][]int64{p.A[i], p.B[i]} {
			if len(blk) == 0 || seen[&blk[0]] {
				continue
			}
			seen[&blk[0]] = true
			for _, row := range blk {
				for _, v := range row {
					d = max(d, abs64(v))
				}
			}
		}
	}
	return d
}

// EncodingLength returns L, the bit length of the largest absolute number in
// the whole input (matrix, rhs, bounds, objective).
func (p *Problem) EncodingLength() int {
	return p.encodingLength(p.Delta())
}

// encodingLength is EncodingLength given the matrix's largest entry delta;
// only the right-hand sides, bounds and objective are scanned per brick.
func (p *Problem) encodingLength(delta int64) int {
	mx := max(1, delta)
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.T; j++ {
			mx = max(mx, abs64(p.Lower[i][j]), abs64(p.Upper[i][j]), abs64(p.Obj[i][j]))
		}
		for _, v := range p.LocalRHS[i] {
			mx = max(mx, abs64(v))
		}
	}
	for _, v := range p.GlobalRHS {
		mx = max(mx, abs64(v))
	}
	return bits.Len64(uint64(mx))
}

// Params summarizes the N-fold parameters appearing in Theorem 1.
type Params struct {
	N     int   `json:"n"`
	R     int   `json:"r"`
	S     int   `json:"s"`
	T     int   `json:"t"`
	Delta int64 `json:"delta"`
	L     int   `json:"l"`
	// Vars is N*T, the total variable count.
	Vars int `json:"vars"`
}

// Params extracts the parameter vector.
func (p *Problem) Params() Params {
	d := p.Delta()
	return Params{N: p.N, R: p.R, S: p.S, T: p.T, Delta: d, L: p.encodingLength(d), Vars: p.N * p.T}
}

// TheoreticalCostLog2 returns log₂ of the Theorem 1 running-time bound of
// p (see Params.CostLog2).
func (p *Problem) TheoreticalCostLog2() float64 {
	return p.Params().CostLog2()
}

// CostLog2 returns log₂ of the Theorem 1 running-time bound
// (rsΔ)^{O(r²s+s²)}·L·Nt·log^{O(1)}(Nt), with all O(·) constants set to 1.
// PTAS reports carry it (Report.TheoreticalCostLog2) next to measured solve
// times to exhibit the parameter dependence the paper's analysis predicts.
func (par Params) CostLog2() float64 {
	if par.Vars == 0 {
		return 0
	}
	base := float64(par.R) * float64(par.S) * float64(par.Delta)
	if base < 2 {
		base = 2
	}
	exp := float64(par.R*par.R*par.S + par.S*par.S)
	nt := float64(par.Vars)
	return exp*math.Log2(base) + math.Log2(float64(par.L)+1) + math.Log2(nt) + math.Log2(math.Log2(nt)+1)
}

// Check verifies that x (indexed [brick][col]) satisfies all constraints and
// bounds exactly. The global rows are evaluated once per distinct A block:
// x is summed over the bricks that share the block by pointer and the sum
// multiplied once. Wrapping int64 arithmetic is a ring, so the sums equal
// the brick-by-brick products bit for bit, overflow included.
func (p *Problem) Check(x [][]int64) error {
	if len(x) != p.N {
		return fmt.Errorf("nfold: solution has %d bricks, want %d", len(x), p.N)
	}
	type shared struct {
		a   [][]int64
		sum []int64
	}
	var blocks []shared
	index := make(map[*[]int64]int)
	for i := 0; i < p.N; i++ {
		if len(x[i]) != p.T {
			return fmt.Errorf("nfold: brick %d has %d vars, want %d", i, len(x[i]), p.T)
		}
		for j := 0; j < p.T; j++ {
			if x[i][j] < p.Lower[i][j] || x[i][j] > p.Upper[i][j] {
				return fmt.Errorf("nfold: brick %d var %d value %d outside [%d,%d]",
					i, j, x[i][j], p.Lower[i][j], p.Upper[i][j])
			}
		}
		if len(p.A[i]) > 0 {
			k, ok := index[&p.A[i][0]]
			if !ok {
				k = len(blocks)
				index[&p.A[i][0]] = k
				blocks = append(blocks, shared{a: p.A[i], sum: make([]int64, p.T)})
			}
			for j, v := range x[i] {
				blocks[k].sum[j] += v
			}
		}
		for k, row := range p.B[i] {
			var dot int64
			for j, v := range row {
				dot += v * x[i][j]
			}
			if dot != p.LocalRHS[i][k] {
				return fmt.Errorf("nfold: brick %d local row %d: %d != %d", i, k, dot, p.LocalRHS[i][k])
			}
		}
	}
	global := make([]int64, p.R)
	for _, blk := range blocks {
		for k, row := range blk.a {
			for j, v := range row {
				global[k] += v * blk.sum[j]
			}
		}
	}
	for k := range global {
		if global[k] != p.GlobalRHS[k] {
			return fmt.Errorf("nfold: global row %d: %d != %d", k, global[k], p.GlobalRHS[k])
		}
	}
	return nil
}

// Objective returns Obj·x.
func (p *Problem) Objective(x [][]int64) int64 {
	var total int64
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.T; j++ {
			total += p.Obj[i][j] * x[i][j]
		}
	}
	return total
}
