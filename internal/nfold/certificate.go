package nfold

import "math"

// Infeasibility certificates. The PTAS makespan-guess search rejects a
// guess by solving the guess's configuration N-fold to Infeasible — in the
// common case by the exact engine's root LP relaxation alone (the reject is
// a capacity argument, not a branching one). A scheduling session that
// re-solves an almost-identical instance round after round meets an almost-
// identical reject N-fold each time; instead of re-running augmentation and
// a fresh root LP, it can take the previous round's Farkas ray (see
// Result.InfeasibleRay) and *re-verify* it against the new problem: a valid
// ray proves the new LP relaxation — and hence the integer problem —
// infeasible in one sparse pass, no simplex at all.
//
// Re-verification is what keeps this sound and bit-parity-safe: the ray is
// only a hint, checked from scratch against the problem at hand, so a stale
// or wrongly-derived ray can never flip a verdict — it merely fails to
// certify and the caller falls back to the ordinary engines, which return
// exactly what they always return.

// certRelTol and certAbsTol define the safety margin of the certificate
// check. All problem data (blocks, bounds, right-hand sides) are int64, so
// the only rounding error in the verification is the float accumulation
// itself; the margin is deliberately far above that. A margin that is too
// strict only costs speed (the caller solves cold), never correctness.
const (
	certRelTol = 1e-7
	certAbsTol = 1e-6
)

// CertifiesInfeasible reports whether the row-price vector ray proves this
// problem's LP relaxation (and therefore the problem) infeasible. The ray is
// indexed in the full row order: the R global rows first, then brick i's S
// local rows at R + i·S + s, including the rows Flatten drops. The check is the textbook Farkas
// argument over box bounds: with t_ij = Σ_k y_k·(row k of brick i)_j, the
// relaxation is infeasible when even the box maximum (or minimum) of y·Ax
// cannot reach y·b. A false return means only that this ray proves nothing
// about this problem.
func (p *Problem) CertifiesInfeasible(ray []float64) bool {
	if len(ray) != p.R+p.N*p.S {
		return false
	}
	yb := 0.0
	for k := 0; k < p.R; k++ {
		yb += ray[k] * float64(p.GlobalRHS[k])
	}
	for i := 0; i < p.N; i++ {
		for s := 0; s < p.S; s++ {
			yb += ray[p.R+i*p.S+s] * float64(p.LocalRHS[i][s])
		}
	}
	// t_ij splits into a global part (depends only on brick i's A block,
	// which bricks share by pointer) and a local part (brick-specific ray
	// entries). Caching the global part per distinct block keeps the pass
	// linear in the number of distinct brick shapes, not bricks.
	globalPart := make(map[*[]int64][]float64)
	var maxSum, minSum, absSum float64
	tj := make([]float64, p.T)
	for i := 0; i < p.N; i++ {
		a, b := p.A[i], p.B[i]
		var gkey *[]int64
		if len(a) > 0 {
			gkey = &a[0]
		}
		gp, ok := globalPart[gkey]
		if !ok {
			gp = make([]float64, p.T)
			for k := 0; k < p.R; k++ {
				y := ray[k]
				if y == 0 {
					continue
				}
				row := a[k]
				for j := 0; j < p.T; j++ {
					if v := row[j]; v != 0 {
						gp[j] += y * float64(v)
					}
				}
			}
			globalPart[gkey] = gp
		}
		copy(tj, gp)
		for s := 0; s < p.S; s++ {
			y := ray[p.R+i*p.S+s]
			if y == 0 {
				continue
			}
			row := b[s]
			for j := 0; j < p.T; j++ {
				if v := row[j]; v != 0 {
					tj[j] += y * float64(v)
				}
			}
		}
		lo, up := p.Lower[i], p.Upper[i]
		for j := 0; j < p.T; j++ {
			t := tj[j]
			if t == 0 {
				continue
			}
			l, u := float64(lo[j]), float64(up[j])
			if t > 0 {
				maxSum += t * u
				minSum += t * l
				absSum += t * math.Max(math.Abs(l), math.Abs(u))
			} else {
				maxSum += t * l
				minSum += t * u
				absSum += -t * math.Max(math.Abs(l), math.Abs(u))
			}
		}
	}
	margin := certRelTol*(absSum+math.Abs(yb)) + certAbsTol
	return maxSum < yb-margin || minSum > yb+margin
}
