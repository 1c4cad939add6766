// Package rat implements exact rational arithmetic with an allocation-free
// int64 fast path.
//
// The solvers in this module only ever manipulate rationals of the form
// P_u/k (class borders, denominators bounded by the machine count) and
// multiples of δ²T/c (PTAS grid units), so in practice nearly every value
// fits in an int64 numerator/denominator pair. R keeps exactly that pair as
// a value type — add/sub/mul/cmp run on machine words via 128-bit
// intermediates (math/bits) — and transparently falls back to a heap
// *big.Rat escape hatch on the rare overflow, preserving exactness
// unconditionally. Results of wide operations are demoted back to the fast
// path whenever they fit.
//
// R is an immutable value: every operation returns a new value and never
// mutates its operands, so values can be freely copied, stored in slices and
// shared across goroutines. The zero value is 0.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// R is an exact rational number. The zero value is 0.
//
// Invariant: either wide == nil and the value is num/den with den ≥ 1 and
// gcd(|num|, den) = 1 (den == 0 is the zero value, read as 0/1), or
// wide != nil and the value is *wide (num/den are ignored). The wide field
// is never mutated after creation.
type R struct {
	num, den int64
	wide     *big.Rat
}

// d returns the fast-path denominator, mapping the zero value's 0 to 1.
func (r R) d() int64 {
	if r.den == 0 {
		return 1
	}
	return r.den
}

// FromInt returns x as a rational.
func FromInt(x int64) R {
	if x == math.MinInt64 {
		return R{wide: new(big.Rat).SetInt64(x)}
	}
	return R{num: x, den: 1}
}

// Frac returns num/den. den must be nonzero.
func Frac(num, den int64) R {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		return fromBigOwned(big.NewRat(num, den))
	}
	if den < 0 {
		num, den = -num, -den
	}
	return norm(num, den)
}

// FromBig returns a rational equal to x. x is copied, not retained.
func FromBig(x *big.Rat) R {
	return fromBigOwned(new(big.Rat).Set(x))
}

// fromBigOwned wraps a *big.Rat the caller hands over (never mutated again),
// demoting to the fast path when numerator and denominator fit in int64.
func fromBigOwned(x *big.Rat) R {
	if x.Num().IsInt64() && x.Denom().IsInt64() {
		n, d := x.Num().Int64(), x.Denom().Int64()
		if n != math.MinInt64 && d != math.MinInt64 {
			return R{num: n, den: d} // big.Rat is already normalized
		}
	}
	return R{wide: x}
}

// norm reduces num/den (den ≥ 1) to lowest terms.
func norm(num, den int64) R {
	if num == 0 {
		return R{num: 0, den: 1}
	}
	if num == math.MinInt64 {
		// |MinInt64| overflows; keep the invariant that num is never MinInt64.
		return fromBigOwned(big.NewRat(num, den))
	}
	g := gcd(abs(num), den)
	return R{num: num / g, den: den / g}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// addOvf returns a+b and reports whether it stayed in range.
func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	return s, true
}

// mulOvf returns a*b and reports whether it stayed in range. It never
// produces math.MinInt64, keeping negation safe everywhere.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(uint64(abs(a)), uint64(abs(b)))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int64(lo), true
	}
	return int64(lo), true
}

// big returns the value as a *big.Rat. The result aliases r.wide when wide;
// callers inside this package must not mutate it.
func (r R) big() *big.Rat {
	if r.wide != nil {
		return r.wide
	}
	return big.NewRat(r.num, r.d())
}

// Rat returns the value as a freshly allocated *big.Rat the caller owns.
func (r R) Rat() *big.Rat {
	if r.wide != nil {
		return new(big.Rat).Set(r.wide)
	}
	return big.NewRat(r.num, r.d())
}

// IsWide reports whether the value lives on the *big.Rat escape hatch.
func (r R) IsWide() bool { return r.wide != nil }

// Sign returns -1, 0 or +1.
func (r R) Sign() int {
	if r.wide != nil {
		return r.wide.Sign()
	}
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	}
	return 0
}

// IsZero reports whether the value is 0.
func (r R) IsZero() bool { return r.Sign() == 0 }

// Neg returns -r.
func (r R) Neg() R {
	if r.wide != nil {
		return fromBigOwned(new(big.Rat).Neg(r.wide))
	}
	return R{num: -r.num, den: r.den}
}

// Add returns r+o.
func (r R) Add(o R) R {
	if r.wide == nil && o.wide == nil {
		a, b, c, d := r.num, r.d(), o.num, o.d()
		if b == d {
			if s, ok := addOvf(a, c); ok {
				return norm(s, b)
			}
		} else {
			g := gcd(b, d)
			db, bg := d/g, b/g
			t1, ok1 := mulOvf(a, db)
			t2, ok2 := mulOvf(c, bg)
			if ok1 && ok2 {
				if t, ok := addOvf(t1, t2); ok {
					if den, ok := mulOvf(b, db); ok {
						return norm(t, den)
					}
				}
			}
		}
	}
	return fromBigOwned(new(big.Rat).Add(r.big(), o.big()))
}

// Sub returns r-o.
func (r R) Sub(o R) R { return r.Add(o.Neg()) }

// Mul returns r*o.
func (r R) Mul(o R) R {
	if r.wide == nil && o.wide == nil {
		a, b, c, d := r.num, r.d(), o.num, o.d()
		if a == 0 || c == 0 {
			return R{num: 0, den: 1}
		}
		g1 := gcd(abs(a), d)
		g2 := gcd(abs(c), b)
		num, ok1 := mulOvf(a/g1, c/g2)
		den, ok2 := mulOvf(b/g2, d/g1)
		if ok1 && ok2 {
			return R{num: num, den: den} // cross-reduced, already coprime
		}
	}
	return fromBigOwned(new(big.Rat).Mul(r.big(), o.big()))
}

// Quo returns r/o. o must be nonzero.
func (r R) Quo(o R) R {
	if o.Sign() == 0 {
		panic("rat: division by zero")
	}
	if o.wide == nil {
		return r.Mul(Frac(o.d(), o.num))
	}
	return fromBigOwned(new(big.Rat).Quo(r.big(), o.big()))
}

// MulInt returns r*k.
func (r R) MulInt(k int64) R { return r.Mul(FromInt(k)) }

// DivInt returns r/k. k must be nonzero.
func (r R) DivInt(k int64) R {
	if k == 0 {
		panic("rat: division by zero")
	}
	if r.wide == nil && k != math.MinInt64 {
		return r.Mul(Frac(1, k))
	}
	return fromBigOwned(new(big.Rat).Quo(r.big(), new(big.Rat).SetInt64(k)))
}

// Cmp compares r and o, returning -1, 0 or +1. The fast path is exact via a
// 128-bit cross multiplication and never allocates.
func (r R) Cmp(o R) int {
	if r.wide == nil && o.wide == nil {
		a, b, c, d := r.num, r.d(), o.num, o.d()
		if b == d {
			switch {
			case a < c:
				return -1
			case a > c:
				return 1
			}
			return 0
		}
		sa, sc := sign64(a), sign64(c)
		if sa != sc {
			if sa < sc {
				return -1
			}
			return 1
		}
		// Same sign: compare |a|·d with |c|·b exactly in 128 bits.
		lhi, llo := bits.Mul64(uint64(abs(a)), uint64(d))
		rhi, rlo := bits.Mul64(uint64(abs(c)), uint64(b))
		cmp := cmp128(lhi, llo, rhi, rlo)
		if sa < 0 {
			cmp = -cmp
		}
		return cmp
	}
	return r.big().Cmp(o.big())
}

func sign64(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

func cmp128(ahi, alo, bhi, blo uint64) int {
	switch {
	case ahi < bhi:
		return -1
	case ahi > bhi:
		return 1
	case alo < blo:
		return -1
	case alo > blo:
		return 1
	}
	return 0
}

// Equal reports r == o.
func (r R) Equal(o R) bool { return r.Cmp(o) == 0 }

// Max returns the larger of a and b (a on ties).
func Max(a, b R) R {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// Min returns the smaller of a and b (a on ties).
func Min(a, b R) R {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// IsInt reports whether the value is an integer.
func (r R) IsInt() bool {
	if r.wide != nil {
		return r.wide.IsInt()
	}
	return r.d() == 1
}

// Int64 returns the value as an int64 when it is an integer that fits.
func (r R) Int64() (int64, bool) {
	if r.wide != nil {
		if !r.wide.IsInt() || !r.wide.Num().IsInt64() {
			return 0, false
		}
		return r.wide.Num().Int64(), true
	}
	if r.d() != 1 {
		return 0, false
	}
	return r.num, true
}

// Ceil returns ⌈r⌉ as an int64. The value must fit.
func (r R) Ceil() int64 {
	if r.wide != nil {
		q, rem := new(big.Int).QuoRem(r.wide.Num(), r.wide.Denom(), new(big.Int))
		if rem.Sign() > 0 {
			q.Add(q, big.NewInt(1))
		}
		return q.Int64()
	}
	q := r.num / r.d()
	if r.num%r.d() > 0 {
		q++
	}
	return q
}

// Floor returns ⌊r⌋ as an int64. The value must fit.
func (r R) Floor() int64 {
	if r.wide != nil {
		q, rem := new(big.Int).QuoRem(r.wide.Num(), r.wide.Denom(), new(big.Int))
		if rem.Sign() < 0 {
			q.Sub(q, big.NewInt(1))
		}
		return q.Int64()
	}
	q := r.num / r.d()
	if r.num%r.d() < 0 {
		q--
	}
	return q
}

// FloorQuo returns ⌊r/o⌋ for nonnegative r and positive o. The quotient must
// fit in an int64 (callers divide machine loads by a positive guess, so it is
// bounded by the machine count).
func (r R) FloorQuo(o R) int64 {
	if r.wide == nil && o.wide == nil {
		// ⌊(a/b)/(c/d)⌋ = ⌊a·d / (b·c)⌋.
		nhi, nlo := bits.Mul64(uint64(abs(r.num)), uint64(o.d()))
		if den, ok := mulOvf(r.d(), o.num); ok && den > 0 && nhi < uint64(den) {
			q, _ := bits.Div64(nhi, nlo, uint64(den))
			if q <= math.MaxInt64 && r.num >= 0 {
				return int64(q)
			}
		}
	}
	return fromBigOwned(new(big.Rat).Quo(r.big(), o.big())).Floor()
}

// CeilQuoInt returns ⌈a/t⌉ for a ≥ 0 and t > 0 without allocating on the
// fast path; this is the slot-counting kernel Σ⌈P_u/T⌉ of Lemma 2.
func CeilQuoInt(a int64, t R) int64 {
	if t.wide == nil && a >= 0 && t.num > 0 {
		hi, lo := bits.Mul64(uint64(a), uint64(t.d()))
		if hi < uint64(t.num) {
			q, rem := bits.Div64(hi, lo, uint64(t.num))
			if rem != 0 {
				q++
			}
			if q <= math.MaxInt64 {
				return int64(q)
			}
		}
	}
	return FromInt(a).Quo(t).Ceil()
}

// Float64 returns the nearest float64, for reporting only.
func (r R) Float64() float64 {
	f, _ := r.big().Float64()
	return f
}

// RatString returns the value as a fraction string like big.Rat.RatString
// ("3/2", or "7" for integers).
func (r R) RatString() string {
	if r.wide != nil {
		return r.wide.RatString()
	}
	return string(r.appendFrac(nil, false))
}

// String returns the value in num/den form, always with a denominator.
func (r R) String() string {
	if r.wide != nil {
		return r.wide.String()
	}
	return string(r.appendFrac(nil, true))
}

// appendFrac appends the fast-path value as num/den, omitting "/1" unless
// withOne is set. The pair is already in lowest terms, so this matches
// big.Rat's rendering without building one.
func (r R) appendFrac(b []byte, withOne bool) []byte {
	b = strconv.AppendInt(b, r.num, 10)
	if d := r.d(); d != 1 || withOne {
		b = append(b, '/')
		b = strconv.AppendInt(b, d, 10)
	}
	return b
}

// AppendRatString appends the RatString form of r to b.
func (r R) AppendRatString(b []byte) []byte {
	if r.wide != nil {
		return append(b, r.wide.RatString()...)
	}
	return r.appendFrac(b, false)
}

// RatStringLen returns the length of the RatString form of r.
func (r R) RatStringLen() int {
	if r.wide != nil {
		return len(r.wide.RatString())
	}
	n := DecimalLen(r.num)
	if d := r.d(); d != 1 {
		n += 1 + DecimalLen(d)
	}
	return n
}

// DecimalLen returns the length of x in base 10, as strconv.AppendInt(b,
// x, 10) renders it.
func DecimalLen(x int64) int {
	n, u := 0, uint64(x)
	if x < 0 {
		n, u = 1, -u
	}
	// u has t or t+1 digits, t = ⌊bits·log₁₀2⌋ (1233/4096 ≈ log₁₀2).
	t := bits.Len64(u|1) * 1233 >> 12
	if u|1 >= pow10[t] {
		t++
	}
	return n + t
}

// pow10[k] is 10^k, up to the first power above every |int64|.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// MarshalText implements encoding.TextMarshaler: the value is rendered in
// RatString form ("3/2", or "7" for integers), so R fields serialize as
// exact JSON strings via encoding/json.
func (r R) MarshalText() ([]byte, error) {
	return r.AppendRatString(nil), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. It accepts everything
// big.Rat.SetString does ("3/2", "7", "1.25", "2e3"), preserving exactness
// and demoting to the int64 fast path whenever the value fits.
func (r *R) UnmarshalText(text []byte) error {
	x, ok := new(big.Rat).SetString(string(text))
	if !ok {
		return fmt.Errorf("rat: cannot parse %q as a rational", text)
	}
	*r = fromBigOwned(x)
	return nil
}
