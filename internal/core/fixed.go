package core

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
)

// Fixed-width exact arithmetic for the control plane (DESIGN "Control-plane
// arithmetic"). Every value here is an exact integer, or a fraction of two
// uint64 words, with 128-bit intermediates from math/bits. A helper that
// would need more bits reports false, and its caller falls back to the
// big.Int code, which computes the same value — or the same ErrOverflow —
// without a width limit. The two paths differ in cost only.

// mulDivCeil returns ⌈a·b/d⌉ for d > 0, and false when it does not fit in a
// uint64.
func mulDivCeil(a, b, d uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	if hi >= d {
		return 0, false
	}
	q, r := bits.Div64(hi, lo, d)
	if r != 0 {
		if q == math.MaxUint64 {
			return 0, false
		}
		q++
	}
	return q, true
}

// mul64 returns a·b, and false when it does not fit in a uint64.
func mul64(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0
}

// add64 returns a+b, and false when it does not fit in a uint64.
func add64(a, b uint64) (uint64, bool) {
	s, carry := bits.Add64(a, b, 0)
	return s, carry == 0
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rat64 returns r as num/den words, and false when r is negative or either
// part needs more than 64 bits.
func rat64(r *big.Rat) (num, den uint64, ok bool) {
	if r == nil || r.Sign() < 0 || !r.Num().IsUint64() || !r.Denom().IsUint64() {
		return 0, 0, false
	}
	return r.Num().Uint64(), r.Denom().Uint64(), true
}

// common returns the reduced fractions a/b and c/d over their least common
// denominator as x/den and y/den, and false when a step does not fit in 64
// bits.
func common(a, b, c, d uint64) (x, y, den uint64, ok bool) {
	g := gcd64(b, d)
	x, ok1 := mul64(a, d/g)
	y, ok2 := mul64(c, b/g)
	den, ok3 := mul64(b, d/g)
	return x, y, den, ok1 && ok2 && ok3
}

// addFrac returns the reduced sum a/b + c/d of two reduced fractions, and
// false when a step does not fit in 64 bits.
func addFrac(a, b, c, d uint64) (uint64, uint64, bool) {
	x, y, den, ok := common(a, b, c, d)
	num, ok2 := add64(x, y)
	if !ok || !ok2 {
		return 0, 0, false
	}
	r := gcd64(num, den)
	return num / r, den / r, true
}

// subFrac returns the reduced difference a/b − c/d of two reduced
// fractions, and false when it is negative or a step does not fit in 64
// bits.
func subFrac(a, b, c, d uint64) (uint64, uint64, bool) {
	x, y, den, ok := common(a, b, c, d)
	if !ok || x < y {
		return 0, 0, false
	}
	r := gcd64(x-y, den)
	return (x - y) / r, den / r, true
}

// mulFrac returns the reduced product of the reduced fraction a/b and c/d,
// and false when a step does not fit in 64 bits.
func mulFrac(a, b, c, d uint64) (uint64, uint64, bool) {
	r := gcd64(c, d)
	c, d = c/r, d/r
	g1, g2 := gcd64(a, d), gcd64(c, b)
	num, ok1 := mul64(a/g1, c/g2)
	den, ok2 := mul64(b/g2, d/g1)
	return num, den, ok1 && ok2
}

// utilization64 returns ρ = (Σ μs)·c0/ClockHz (see Utilization) as a
// reduced fraction num/den, and false when a rate or a step needs more
// than 64 bits.
//
//accellint:noalloc guard=TestSeedZeroAlloc
func (s *System) utilization64() (num, den uint64, ok bool) {
	// Utilization scales by c0 as an int64.
	c0 := s.Chain.C0()
	if s.ClockHz <= 0 || c0 > math.MaxInt64 {
		return 0, 0, false
	}
	num, den = 0, 1
	for i := range s.Streams {
		rn, rd, ok := rat64(s.Streams[i].Rate)
		if !ok {
			return 0, 0, false
		}
		if num, den, ok = addFrac(num, den, rn, rd); !ok {
			return 0, 0, false
		}
	}
	return mulFrac(num, den, c0, uint64(s.ClockHz))
}

// Load is an exact utilisation: a system's ρ (see Utilization), one
// stream's share of a chain (StreamLoad), or a sum or difference of such.
// It holds a reduced fraction of two 64-bit words when the value fits, so
// comparing, adding and subtracting loads allocates nothing, and a big.Rat
// otherwise. The zero Load is 0.
type Load struct {
	num, den uint64   // den is 0 only in the zero Load, which reads 0/1
	wide     *big.Rat // non-nil when num/den do not hold the value
}

// Load returns the system's utilisation.
func (s *System) Load() Load {
	if num, den, ok := s.utilization64(); ok {
		return Load{num: num, den: den}
	}
	return Load{wide: s.Utilization()}
}

// StreamLoad returns the load a stream of the given rate (samples per
// second) puts on the system's chain, rate·c0/ClockHz: its term of
// Utilization, so a system's Load is the sum of its streams' loads.
//
//accellint:noalloc guard=TestLoadArithmeticZeroAlloc
func (s *System) StreamLoad(rate *big.Rat) Load {
	// Utilization scales by c0 as an int64.
	c0 := s.Chain.C0()
	if s.ClockHz > 0 && c0 <= math.MaxInt64 {
		if rn, rd, ok := rat64(rate); ok {
			if num, den, ok := mulFrac(rn, rd, c0, uint64(s.ClockHz)); ok {
				return Load{num: num, den: den}
			}
		}
	}
	//accellint:alloc a load that does not fit in 64 bits is a big.Rat
	return LoadOf(new(big.Rat).Mul(rate, big.NewRat(int64(c0), s.ClockHz)))
}

// LoadOf returns r as a load.
func LoadOf(r *big.Rat) Load {
	if num, den, ok := rat64(r); ok {
		return Load{num: num, den: den}
	}
	return Load{wide: new(big.Rat).Set(r)}
}

// frac returns a load that fits in 64 bits as num/den.
func (a Load) frac() (num, den uint64) {
	if a.den == 0 {
		return 0, 1
	}
	return a.num, a.den
}

// Cmp compares a and b exactly and returns -1, 0 or +1.
//
//accellint:noalloc guard=TestLoadCmpZeroAlloc
func (a Load) Cmp(b Load) int {
	if a.wide != nil || b.wide != nil {
		return a.Rat().Cmp(b.Rat())
	}
	an, ad := a.frac()
	bn, bd := b.frac()
	ah, al := bits.Mul64(an, bd)
	bh, bl := bits.Mul64(bn, ad)
	if ah != bh {
		return cmp.Compare(ah, bh)
	}
	return cmp.Compare(al, bl)
}

// Add returns a + b exactly.
//
//accellint:noalloc guard=TestLoadArithmeticZeroAlloc
func (a Load) Add(b Load) Load {
	if a.wide == nil && b.wide == nil {
		an, ad := a.frac()
		bn, bd := b.frac()
		if num, den, ok := addFrac(an, ad, bn, bd); ok {
			return Load{num: num, den: den}
		}
	}
	//accellint:alloc a sum that does not fit in 64 bits is a big.Rat
	return LoadOf(new(big.Rat).Add(a.Rat(), b.Rat()))
}

// Sub returns a − b exactly. A negative difference is a big.Rat.
//
//accellint:noalloc guard=TestLoadArithmeticZeroAlloc
func (a Load) Sub(b Load) Load {
	if a.wide == nil && b.wide == nil {
		an, ad := a.frac()
		bn, bd := b.frac()
		if num, den, ok := subFrac(an, ad, bn, bd); ok {
			return Load{num: num, den: den}
		}
	}
	//accellint:alloc a difference that does not fit in 64 bits is a big.Rat
	return LoadOf(new(big.Rat).Sub(a.Rat(), b.Rat()))
}

// Rat returns the load as a new big.Rat.
func (a Load) Rat() *big.Rat {
	if a.wide != nil {
		return new(big.Rat).Set(a.wide)
	}
	num, den := a.frac()
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(num), new(big.Int).SetUint64(den))
}
