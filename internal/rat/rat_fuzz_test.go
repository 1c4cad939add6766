package rat

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// refRat builds the big.Rat reference value for a fuzz operand.
func refRat(num, den int64) *big.Rat { return big.NewRat(num, den) }

// checkAgainstBig asserts that every R operation agrees exactly with the
// corresponding math/big.Rat operation on the two operands.
func checkAgainstBig(t *testing.T, an, ad, bn, bd int64) {
	t.Helper()
	a, b := Frac(an, ad), Frac(bn, bd)
	ra, rb := refRat(an, ad), refRat(bn, bd)

	if got, want := a.Add(b).Rat(), new(big.Rat).Add(ra, rb); got.Cmp(want) != 0 {
		t.Fatalf("(%d/%d)+(%d/%d) = %s, want %s", an, ad, bn, bd, got.RatString(), want.RatString())
	}
	if got, want := a.Sub(b).Rat(), new(big.Rat).Sub(ra, rb); got.Cmp(want) != 0 {
		t.Fatalf("(%d/%d)-(%d/%d) = %s, want %s", an, ad, bn, bd, got.RatString(), want.RatString())
	}
	if got, want := a.Mul(b).Rat(), new(big.Rat).Mul(ra, rb); got.Cmp(want) != 0 {
		t.Fatalf("(%d/%d)*(%d/%d) = %s, want %s", an, ad, bn, bd, got.RatString(), want.RatString())
	}
	if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
		t.Fatalf("cmp(%d/%d, %d/%d) = %d, want %d", an, ad, bn, bd, got, want)
	}
	if b.Sign() != 0 {
		if got, want := a.Quo(b).Rat(), new(big.Rat).Quo(ra, rb); got.Cmp(want) != 0 {
			t.Fatalf("(%d/%d)/(%d/%d) = %s, want %s", an, ad, bn, bd, got.RatString(), want.RatString())
		}
	}
	if got, want := a.Sign(), ra.Sign(); got != want {
		t.Fatalf("sign(%d/%d) = %d, want %d", an, ad, got, want)
	}
	if got, want := a.Neg().Rat(), new(big.Rat).Neg(ra); got.Cmp(want) != 0 {
		t.Fatalf("neg(%d/%d) = %s, want %s", an, ad, got.RatString(), want.RatString())
	}
	// Round trip through big form must be lossless.
	if got := FromBig(a.Rat()); got.Cmp(a) != 0 {
		t.Fatalf("FromBig(Rat(%d/%d)) = %s, want %s", an, ad, got.RatString(), a.RatString())
	}
	// The text forms are rendered without big.Rat on the fast path and must
	// match big.Rat's byte for byte, wide results included.
	for _, r := range []R{a, b, a.Add(b), a.Mul(b), a.Neg(), {}} {
		text, err := r.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Rat().RatString(); string(text) != want || r.RatString() != want {
			t.Fatalf("MarshalText = %q, RatString = %q, big.Rat.RatString = %q", text, r.RatString(), want)
		}
		if want := r.Rat().String(); r.String() != want {
			t.Fatalf("String = %q, big.Rat.String = %q", r.String(), want)
		}
	}
}

// FuzzAgainstBig differentially fuzzes R against math/big.Rat, with seeds
// straddling the int64 overflow boundary so both the fast path and the wide
// escape hatch are exercised.
func FuzzAgainstBig(f *testing.F) {
	seeds := [][4]int64{
		{0, 1, 0, 1},
		{1, 2, 1, 3},
		{-7, 3, 7, 3},
		{math.MaxInt64, 1, 1, 1},
		{math.MaxInt64, 2, math.MaxInt64 - 1, 3},
		{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2, math.MaxInt64},
		{-math.MaxInt64, 1, -1, math.MaxInt64},
		{math.MinInt64 + 1, 5, 3, math.MaxInt64},
		{1 << 32, (1 << 31) - 1, (1 << 31) + 1, 1 << 32},
		{6700417, 641, -641, 6700417},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3])
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 || an == math.MinInt64 || ad == math.MinInt64 ||
			bn == math.MinInt64 || bd == math.MinInt64 {
			t.Skip()
		}
		checkAgainstBig(t, an, ad, bn, bd)
	})
}

// TestPropertyRandomOperands is the deterministic property test run by
// `go test`: random operands drawn from ranges chosen to straddle the
// overflow boundary (tiny, mid, and near-MaxInt64 magnitudes).
func TestPropertyRandomOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() int64 {
		switch rng.Intn(4) {
		case 0: // small, the common solver regime
			return rng.Int63n(1000) - 500
		case 1: // mid, products still fit
			return rng.Int63n(1 << 31)
		case 2: // large, products overflow into the wide path
			return math.MaxInt64 - rng.Int63n(1<<20)
		default:
			return rng.Int63() // anywhere in [0, MaxInt64)
		}
	}
	for i := 0; i < 20000; i++ {
		an, bn := draw(), draw()
		ad, bd := draw(), draw()
		if ad == 0 {
			ad = 1
		}
		if bd == 0 {
			bd = 1
		}
		if rng.Intn(2) == 0 {
			an = -an
		}
		if rng.Intn(2) == 0 {
			bn = -bn
		}
		checkAgainstBig(t, an, ad, bn, bd)
	}
}

// TestWideDemotion checks that results that overflow int64 go wide and that
// wide values demote back to the fast path when a later operation shrinks
// them into range.
func TestWideDemotion(t *testing.T) {
	huge := Frac(math.MaxInt64, 3)
	prod := huge.Mul(huge) // overflows: must be wide and still exact
	if !prod.IsWide() {
		t.Fatalf("(%s)² should be wide", huge.RatString())
	}
	want := new(big.Rat).Mul(refRat(math.MaxInt64, 3), refRat(math.MaxInt64, 3))
	if prod.Rat().Cmp(want) != 0 {
		t.Fatalf("wide product = %s, want %s", prod.RatString(), want.RatString())
	}
	// Dividing the square back down must land on the fast path again.
	back := prod.Quo(huge)
	if back.IsWide() {
		t.Errorf("(huge²)/huge should demote to the fast path")
	}
	if back.Cmp(huge) != 0 {
		t.Errorf("(huge²)/huge = %s, want %s", back.RatString(), huge.RatString())
	}
}

// TestIntegerHelpers covers Ceil/Floor/FloorQuo/CeilQuoInt on both paths.
func TestIntegerHelpers(t *testing.T) {
	cases := []struct {
		r           R
		ceil, floor int64
	}{
		{Frac(7, 2), 4, 3},
		{Frac(-7, 2), -3, -4},
		{FromInt(5), 5, 5},
		{R{}, 0, 0},
		{Frac(math.MaxInt64, 2), 4611686018427387904, 4611686018427387903},
	}
	for _, c := range cases {
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%s) = %d, want %d", c.r.RatString(), got, c.ceil)
		}
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("Floor(%s) = %d, want %d", c.r.RatString(), got, c.floor)
		}
	}
	if got := Frac(22, 3).FloorQuo(Frac(3, 2)); got != 4 {
		t.Errorf("FloorQuo(22/3, 3/2) = %d, want 4", got)
	}
	if got := FromInt(math.MaxInt64).FloorQuo(Frac(1, 2)); got == 0 {
		t.Errorf("FloorQuo(MaxInt64, 1/2) hit a silent overflow")
	}
	if got := CeilQuoInt(10, Frac(3, 1)); got != 4 {
		t.Errorf("CeilQuoInt(10, 3) = %d, want 4", got)
	}
	if got := CeilQuoInt(10, Frac(10, 3)); got != 3 {
		t.Errorf("CeilQuoInt(10, 10/3) = %d, want 3", got)
	}
	if got, want := CeilQuoInt(math.MaxInt64, Frac(1, 7)), FromInt(math.MaxInt64).MulInt(7).Ceil(); got != want {
		// 7·MaxInt64 does not fit: the helper must fall back, not truncate.
		if big.NewRat(math.MaxInt64, 1).Cmp(big.NewRat(got, 7)) > 0 {
			t.Errorf("CeilQuoInt overflow fallback returned %d", got)
		}
		_ = want
	}
}

// TestZeroValue checks that the zero value of R behaves as 0 everywhere.
func TestZeroValue(t *testing.T) {
	var z R
	if z.Sign() != 0 || !z.IsZero() {
		t.Fatalf("zero value has sign %d", z.Sign())
	}
	if got := z.Add(Frac(3, 2)); got.Cmp(Frac(3, 2)) != 0 {
		t.Errorf("0 + 3/2 = %s", got.RatString())
	}
	if got := Frac(3, 2).Mul(z); got.Sign() != 0 {
		t.Errorf("3/2 * 0 = %s", got.RatString())
	}
	if z.RatString() != "0" {
		t.Errorf("zero RatString = %q", z.RatString())
	}
}

// TestDecimalLen checks DecimalLen and RatStringLen against the rendered
// text on both sides of every power of ten, both signs, the int64 extremes
// and random values.
func TestDecimalLen(t *testing.T) {
	xs := []int64{0, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		xs = append(xs, p-1, p, p+1, 10*p-1)
	}
	rng := rand.New(rand.NewSource(30))
	for k := 0; k < 1000; k++ {
		xs = append(xs, rng.Int63()>>rng.Intn(63))
	}
	for _, x := range xs {
		for _, v := range []int64{x, -x} {
			if got, want := DecimalLen(v), len(strconv.FormatInt(v, 10)); got != want {
				t.Fatalf("DecimalLen(%d) = %d, want %d", v, got, want)
			}
			if d := x%1000 + 1; d > 0 {
				r := Frac(v, d)
				if got, want := r.RatStringLen(), len(r.RatString()); got != want {
					t.Fatalf("RatStringLen(%s) = %d, want %d", r.RatString(), got, want)
				}
			}
		}
	}
}
