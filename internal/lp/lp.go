// Package lp implements a dense, bounded-variable revised simplex solver
// for linear programs
//
//	minimize    c·x
//	subject to  A_i·x  (≤ | = | ≥)  b_i      for every row i
//	            l ≤ x ≤ u                    (entries may be ±Inf)
//
// It exists because the paper's preprocessing lemmas (8, 12, 15) need the
// Lenstra–Shmoys–Tardos assignment-LP rounding and the PTAS fallback engine
// needs LP relaxations, while the build must be pure stdlib: the solver is
// the repository's substitute for an external LP library.
//
// The implementation is a textbook two-phase revised simplex with explicit
// lower/upper bound handling (nonbasic variables rest at either bound, the
// ratio test permits bound flips) and Bland's rule as an anti-cycling
// fallback. It is tuned for the moderate dimensions the PTAS produces
// (hundreds of rows, thousands of columns), not for industrial scale.
//
// Repeated solves over the same rows — branch-and-bound nodes, makespan
// re-probes — should go through Prepare/SolveBounds: the sparse columns and
// all dense scratch are built once on a pooled arena, per-solve bounds are
// patched in place, and a captured Basis enables the verdict-only warm
// dual-simplex restore (see warm.go) that prunes infeasible child nodes in a
// handful of pivots without ever changing which solution a solve returns.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one constraint row.
type Relation int

const (
	// LE means A_i·x ≤ b_i.
	LE Relation = iota
	// EQ means A_i·x = b_i.
	EQ
	// GE means A_i·x ≥ b_i.
	GE
)

// Status classifies the solver outcome.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

// String names the status for logs and error messages.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is a linear program in the general bounded form above.
type Problem struct {
	// NumVars is the number of structural variables.
	NumVars int
	// Obj is the minimization objective, length NumVars.
	Obj []float64
	// Cols holds the constraint matrix column by column, length NumVars:
	// Cols[j] lists variable j's nonzero coefficients. The sparse form is
	// what the simplex reads, and it keeps large, mostly-zero models (the
	// flattened N-fold ILPs) from ever building a dense row.
	Cols []Column
	// Rel holds the sense of each row, parallel to B.
	Rel []Relation
	// B is the right-hand side; its length is the number of rows.
	B []float64
	// Lower and Upper are variable bounds, length NumVars; use
	// math.Inf(-1) / math.Inf(1) for free directions.
	Lower, Upper []float64
}

// Column is one sparse column of a constraint matrix.
type Column struct {
	// Rows lists the rows of the column's coefficients, strictly
	// increasing.
	Rows []int32
	// Vals holds the coefficients, parallel to Rows.
	Vals []float64
}

// Validate checks dimensional consistency and bound sanity.
func (p *Problem) Validate() error {
	if p.NumVars < 0 {
		return errors.New("lp: negative variable count")
	}
	if len(p.Obj) != p.NumVars || len(p.Lower) != p.NumVars || len(p.Upper) != p.NumVars {
		return fmt.Errorf("lp: objective/bounds length mismatch (n=%d)", p.NumVars)
	}
	m := len(p.B)
	if len(p.Cols) != p.NumVars || len(p.Rel) != m {
		return fmt.Errorf("lp: %d columns (n=%d), %d rhs, %d relations", len(p.Cols), p.NumVars, m, len(p.Rel))
	}
	for j, c := range p.Cols {
		if len(c.Rows) != len(c.Vals) {
			return fmt.Errorf("lp: column %d has %d rows and %d values", j, len(c.Rows), len(c.Vals))
		}
		for k, i := range c.Rows {
			if i < 0 || int(i) >= m || (k > 0 && i <= c.Rows[k-1]) {
				return fmt.Errorf("lp: column %d row %d out of order or range (m=%d)", j, i, m)
			}
		}
	}
	for j := 0; j < p.NumVars; j++ {
		if p.Lower[j] > p.Upper[j] {
			return fmt.Errorf("lp: variable %d has lower %g > upper %g", j, p.Lower[j], p.Upper[j])
		}
	}
	return nil
}

// NewProblem allocates a problem with n variables, no rows, default bounds
// [0, +Inf) and zero objective.
func NewProblem(n int) *Problem {
	p := &Problem{
		NumVars: n,
		Obj:     make([]float64, n),
		Cols:    make([]Column, n),
		Lower:   make([]float64, n),
		Upper:   make([]float64, n),
	}
	for j := range p.Upper {
		p.Upper[j] = math.Inf(1)
	}
	return p
}

// AddRow appends a constraint row given densely; its nonzeros go into the
// columns. Entries past NumVars are ignored.
func (p *Problem) AddRow(coef []float64, rel Relation, rhs float64) {
	i := int32(len(p.B))
	for j, v := range coef[:min(len(coef), p.NumVars)] {
		if v != 0 {
			p.Cols[j].Rows = append(p.Cols[j].Rows, i)
			p.Cols[j].Vals = append(p.Cols[j].Vals, v)
		}
	}
	p.Rel = append(p.Rel, rel)
	p.B = append(p.B, rhs)
}

// Solution is the solver output.
type Solution struct {
	Status Status
	// X is the structural variable assignment (valid when Status is
	// Optimal; best effort otherwise). Solutions produced by
	// Prepared.SolveBounds alias the solver's scratch: copy X before the
	// next solve on the same Prepared.
	X []float64
	// Obj is c·X.
	Obj float64
	// Iterations counts simplex pivots over both phases (and any warm
	// dual-restore pivots that preceded them).
	Iterations int
	// Warm reports that the verdict came from the warm-start dual restore
	// (only ever true for Status Infeasible; see Prepared.SolveBounds).
	Warm bool
}
