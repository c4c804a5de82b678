package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// BlockSizeResult is the outcome of an Algorithm 1 solve.
type BlockSizeResult struct {
	// Blocks[i] is the minimum ηs for stream i.
	Blocks []int64
	// Total is Σ ηs, Algorithm 1's objective.
	Total int64
	// Rounds documents the fixed-point iteration count (informational).
	Rounds int
}

// DefaultRounds is LeastFixedPoint's iteration budget when the caller
// passes 0.
const DefaultRounds = 10_000

// ErrSolverBudget is returned by LeastFixedPoint when the iteration budget
// runs out before the fixed point is reached. It is distinct from
// ErrInfeasible: the utilisation gate has already shown that a least fixed
// point exists, the solver was just not given enough rounds to reach it —
// admission control reports the two outcomes with different rejection
// reasons.
var ErrSolverBudget = errors.New("core: block-size solver budget exhausted")

// ErrOverflow is returned when an exact block size or bound does not fit in
// an int64. The platform cannot implement such a value, so the solve fails
// instead of wrapping.
var ErrOverflow = errors.New("core: value does not fit in an int64")

// FeasibleBlocks reports whether the assignment satisfies Eq. 6 for every
// stream:
//
//	ηs − c0·μs·Σ_{i∈S}(ηi+2) ≥ μs·c1
//
// with μs in samples/cycle and c0, c1 in cycles — equivalently η ≥ F(η)
// componentwise for the operator of ApplyOperator.
func (s *System) FeasibleBlocks(blocks []int64) bool {
	f, err := s.ApplyOperator(nil, blocks)
	if err != nil {
		return false
	}
	for i := range blocks {
		if blocks[i] < f[i] {
			return false
		}
	}
	return true
}

// ApplyOperator applies the granularity-rounded Algorithm 1 operator
//
//	F(η)_s = roundUp(max(1, ⌈μs·(c1 + c0·Σ_i(ηi+2))⌉), g_s)
//
// once, with exact integer arithmetic. An assignment is feasible iff
// η ≥ F(η) componentwise; the least fixed point is the optimum. granularity
// nil (or entries < 1) means no rounding. A component that does not fit in
// an int64 returns ErrOverflow.
func (s *System) ApplyOperator(granularity, blocks []int64) ([]int64, error) {
	if len(blocks) != len(s.Streams) || (granularity != nil && len(granularity) != len(blocks)) {
		return nil, fmt.Errorf("core: %d blocks, %d granularities for %d streams",
			len(blocks), len(granularity), len(s.Streams))
	}
	var op operator
	op.reset(s, granularity)
	out := make([]int64, len(blocks))
	if err := op.step(blocks, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ComputeBlockSizes runs Algorithm 1 without granularity constraints,
// stores the minimum block sizes into the streams and returns them.
func (s *System) ComputeBlockSizes() (*BlockSizeResult, error) {
	return s.ComputeBlockSizesRounded(nil)
}

// ComputeBlockSizesRounded runs Algorithm 1 under the extra constraint that
// ηs is a multiple of granularity[s] (nil = no constraint), stores the
// result into the streams and returns it. Implementations need this when
// the chain down-samples: a block must yield an integral number of output
// samples so the exit gateway can detect the end of the block (the paper's
// own sizes obey this: 10136 = 8·1267).
func (s *System) ComputeBlockSizesRounded(granularity []int64) (*BlockSizeResult, error) {
	res, err := s.LeastFixedPoint(nil, granularity, 0)
	if err != nil {
		return nil, err
	}
	for i := range s.Streams {
		s.Streams[i].Block = res.Blocks[i]
	}
	return res, nil
}

// LeastFixedPoint is Algorithm 1: the componentwise least η ≥ start with
// η ≥ F(η) (see ApplyOperator). By Knaster-Tarski that point is the least
// fixed point of the monotone F, which simultaneously minimises Σηs — the
// optimum of the ILP the paper states. It is found by Kleene iteration:
//
//   - The iteration starts from the closed-form least solution of the
//     rational relaxation. With ρ = c0·Σμs < 1 (checked first; ρ ≥ 1 is
//     ErrInfeasible), every feasible η satisfies Ση ≥ S = A/(1−ρ) for
//     A = Σμs·(c1 + 2n·c0), hence ηs ≥ μs·(c1 + c0·(S+2n)) =
//     μs·(c1 + 2n·c0)/(1−ρ); integrality and granularity then lift that
//     bound to seed_s = roundUp(max(1, ⌈μs·(c1 + 2n·c0)/(1−ρ)⌉), g_s).
//     The seed is ≤ the least fixed point, so the iteration lands on it in
//     a handful of rounds even near saturation.
//   - start, when non-nil, raises the seed componentwise (entries are
//     rounded up to the granularity). When start is ≤ the least fixed
//     point — the old least fixed point after streams were only ADDED,
//     since the operator then grows pointwise — the result is unchanged
//     and the iteration shorter. A start above it yields the least
//     feasible point ≥ start: iterates never shrink below the seed.
//   - granularity, when non-nil, constrains ηs to multiples of
//     granularity[s]; entries < 1 mean 1.
//   - maxRounds bounds the iteration (0 = DefaultRounds); exhausting it
//     returns ErrSolverBudget.
//
// The result is NOT stored into the streams — the caller decides whether
// (and when) to apply the new configuration.
func (s *System) LeastFixedPoint(start, granularity []int64, maxRounds int) (*BlockSizeResult, error) {
	return s.LeastFixedPointIn(nil, start, granularity, maxRounds)
}

// Scratch is reusable working storage for LeastFixedPointIn: the operator's
// fixed-width rates, its big.Int fallback and the iterate vectors. The zero
// value is ready to use. A Scratch serves one solve at a time.
type Scratch struct {
	op        operator
	eta, next []int64
	res       BlockSizeResult
}

// LeastFixedPointIn is LeastFixedPoint with its working storage in sc, so a
// caller that solves again and again allocates nothing once sc has grown to
// its largest stream count. The result and its Blocks then live in sc and
// stay valid until sc's next solve. A nil sc means fresh storage.
func (s *System) LeastFixedPointIn(sc *Scratch, start, granularity []int64, maxRounds int) (*BlockSizeResult, error) {
	n := len(s.Streams)
	if start != nil && len(start) != n {
		return nil, fmt.Errorf("core: %d warm-start entries for %d streams", len(start), n)
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if err := s.seed(sc, granularity); err != nil {
		return nil, err
	}
	op, eta := &sc.op, sc.eta
	for i := range start {
		if start[i] > eta[i] {
			v, err := op.roundUp(i, start[i])
			if err != nil {
				return nil, err
			}
			eta[i] = v
		}
	}
	if maxRounds <= 0 {
		maxRounds = DefaultRounds
	}
	sc.next = resize(sc.next, n)
	next := sc.next
	for round := 1; round <= maxRounds; round++ {
		if err := op.step(eta, next); err != nil {
			return nil, err
		}
		// Jacobi update against the previous vector. A start above F(start)
		// must not shrink: the iterate stays an upper set of the seed,
		// keeping convergence monotone.
		changed := false
		for i, v := range next {
			if v > eta[i] {
				eta[i] = v
				changed = true
			}
		}
		if !changed {
			sc.res = BlockSizeResult{Blocks: eta, Rounds: round}
			for _, b := range eta {
				if sc.res.Total > math.MaxInt64-b {
					return nil, fmt.Errorf("core: total block size: %w", ErrOverflow)
				}
				sc.res.Total += b
			}
			return &sc.res, nil
		}
	}
	return nil, fmt.Errorf("core: no fixed point within %d rounds: %w", maxRounds, ErrSolverBudget)
}

// RelaxationSeed returns LeastFixedPoint's starting point without a warm
// start: seed_s = roundUp(max(1, ⌈μs·(c1 + 2n·c0)/(1−ρ)⌉), g_s), the
// closed-form least solution of the rational relaxation lifted to the
// integer and granularity grid. It is componentwise ≤ the least fixed
// point. ρ ≥ 1 returns ErrInfeasible.
func (s *System) RelaxationSeed(granularity []int64) ([]int64, error) {
	sc := new(Scratch)
	if err := s.seed(sc, granularity); err != nil {
		return nil, err
	}
	return sc.eta, nil
}

// seed validates s, applies the utilisation gate and sets sc.op to the
// operator and sc.eta to the relaxation seed (see RelaxationSeed). The seed
// is F evaluated at K = (c1 + 2n·c0)/(1−ρ), the value of c1 + c0·Σ(ηi+2)
// at the relaxation's optimum. With ρ = N/D in lowest terms that is
// K = (c1 + 2n·c0)·D/(D − N), which the fixed-width path evaluates without
// Utilization or a big.Rat quotient.
func (s *System) seed(sc *Scratch, granularity []int64) error {
	if err := s.Validate(); err != nil {
		return err
	}
	n := len(s.Streams)
	if granularity != nil && len(granularity) != n {
		return fmt.Errorf("core: %d granularities for %d streams", len(granularity), n)
	}
	op := &sc.op
	op.reset(s, granularity)
	sc.eta = resize(sc.eta, n)
	if num, den, ok := s.utilization64(); ok {
		if num >= den {
			return ErrInfeasible
		}
		if op.seed64(den-num, den, sc.eta) {
			return nil
		}
	}
	slack := new(big.Rat).Sub(big.NewRat(1, 1), s.Utilization())
	if slack.Sign() <= 0 {
		return ErrInfeasible
	}
	w := op.wideForm()
	k := new(big.Rat).SetInt(new(big.Int).Mul(&w.c0, &w.twoN))
	k.Quo(k.Add(k, new(big.Rat).SetInt(&w.c1)), slack)
	for i := range sc.eta {
		v, err := op.atWide(i, k.Num(), k.Denom())
		if err != nil {
			return err
		}
		sc.eta[i] = v
	}
	return nil
}

// resize returns buf resliced to n entries, or a new slice when it is too
// small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// operator evaluates F for one system with exact integer arithmetic. The
// fixed-width form holds μs = num[s]/den[s] samples per cycle (unreduced:
// den is the rate's denominator times ClockHz) and runs every step whose
// values fit in 64 bits, with 128-bit products; the big.Int form (wide) is
// built on the first step that does not, and computes the same values, or
// the same ErrOverflow, without a width limit. Both forms keep their
// storage across reset, so repeated solves in one Scratch are
// allocation-free once it has grown.
type operator struct {
	sys      *System
	gran     []int64
	num, den []uint64
	c0, c1   uint64
	fits     bool // every rate fits the fixed-width form
	wide     wideOperator
	wideOK   bool // wide holds sys's rates
}

// wideOperator is the big.Int form of the operator.
type wideOperator struct {
	num, den     []big.Int
	c0, c1, twoN big.Int
	sum, x, a, b big.Int
	quo, rem     big.Int
}

// reset points op at s and granularity.
func (op *operator) reset(s *System, granularity []int64) {
	n := len(s.Streams)
	op.sys, op.gran, op.wideOK = s, granularity, false
	op.c0, op.c1 = s.Chain.C0(), s.C1()
	op.num, op.den = resize(op.num, n), resize(op.den, n)
	op.fits = s.ClockHz > 0
	for i := 0; i < n && op.fits; i++ {
		num, den, ok := rat64(s.Streams[i].Rate)
		if ok {
			den, ok = mul64(den, uint64(s.ClockHz))
		}
		op.num[i], op.den[i], op.fits = num, den, ok
	}
}

// wideForm returns the big.Int form of op, building it on first use.
func (op *operator) wideForm() *wideOperator {
	w := &op.wide
	if op.wideOK {
		return w
	}
	s, n := op.sys, len(op.sys.Streams)
	w.num, w.den = resize(w.num, n), resize(w.den, n)
	clock := big.NewInt(s.ClockHz)
	for i := range s.Streams {
		w.num[i].Set(s.Streams[i].Rate.Num())
		w.den[i].Mul(s.Streams[i].Rate.Denom(), clock)
	}
	w.c0.SetUint64(op.c0)
	w.c1.SetUint64(op.c1)
	w.twoN.SetInt64(int64(2 * n))
	op.wideOK = true
	return w
}

// step sets out = F(eta).
func (op *operator) step(eta, out []int64) error {
	if op.fits && op.step64(eta, out) {
		return nil
	}
	w := op.wideForm()
	w.sum.Set(&w.twoN)
	for _, b := range eta {
		w.sum.Add(&w.sum, w.x.SetInt64(b))
	}
	w.sum.Mul(&w.sum, &w.c0)
	w.sum.Add(&w.sum, &w.c1)
	for i := range eta {
		v, err := op.atWide(i, &w.sum, nil)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// step64 sets out = F(eta) in fixed width, and reports false when a value
// does not fit (out is then partly written).
//
//accellint:noalloc guard=TestOperatorZeroAlloc
func (op *operator) step64(eta, out []int64) bool {
	// x = c1 + c0·Σ(ηi+2)
	sum := uint64(2 * len(eta))
	for _, b := range eta {
		if b < 0 {
			return false
		}
		var ok bool
		if sum, ok = add64(sum, uint64(b)); !ok {
			return false
		}
	}
	x, ok := mul64(sum, op.c0)
	if ok {
		x, ok = add64(x, op.c1)
	}
	if !ok {
		return false
	}
	for i := range eta {
		v, ok := op.at64(i, x, 1)
		if !ok {
			return false
		}
		out[i] = v
	}
	return true
}

// seed64 sets eta to the relaxation seed for the slack 1 − ρ = sn/sd (in
// lowest terms) in fixed width, and reports false when a value does not
// fit.
//
//accellint:noalloc guard=TestSeedZeroAlloc
func (op *operator) seed64(sn, sd uint64, eta []int64) bool {
	if !op.fits {
		return false
	}
	// K = A/(sn/sd) for A = c1 + 2n·c0, as kn/kd in lowest terms (sd and
	// sn are coprime).
	a, ok := mul64(op.c0, uint64(2*len(eta)))
	if ok {
		a, ok = add64(a, op.c1)
	}
	if !ok {
		return false
	}
	g := gcd64(a, sn)
	kn, ok := mul64(a/g, sd)
	if !ok {
		return false
	}
	for i := range eta {
		v, ok := op.at64(i, kn, sn/g)
		if !ok {
			return false
		}
		eta[i] = v
	}
	return true
}

// at64 returns roundUp(max(1, ⌈μi·xn/xd⌉), g_i) for xd ≥ 1, and false when
// a value does not fit. ⌈μi·xn/xd⌉ = ⌈⌈μi·xn⌉/xd⌉ for an integer xd, so the
// product needs one 128-bit division.
func (op *operator) at64(i int, xn, xd uint64) (int64, bool) {
	q, ok := mulDivCeil(op.num[i], xn, op.den[i])
	if !ok {
		return 0, false
	}
	if xd > 1 {
		rem := q % xd
		q /= xd
		if rem != 0 {
			q++
		}
	}
	if q > math.MaxInt64 {
		return 0, false
	}
	v, err := op.roundUp(i, max(int64(q), 1))
	return v, err == nil
}

// atWide returns roundUp(max(1, ⌈μi·xn/xd⌉), g_i) in big.Int arithmetic;
// xd nil means 1.
func (op *operator) atWide(i int, xn, xd *big.Int) (int64, error) {
	w := &op.wide
	w.a.Mul(&w.num[i], xn)
	den := &w.den[i]
	if xd != nil {
		den = w.b.Mul(den, xd)
	}
	v, ok := ceilQuo(&w.a, den, &w.quo, &w.rem)
	if !ok {
		return 0, fmt.Errorf("core: block of stream %q: %w", op.sys.Streams[i].Name, ErrOverflow)
	}
	if v < 1 {
		v = 1
	}
	return op.roundUp(i, v)
}

// roundUp rounds v up to the next multiple of stream i's granularity.
func (op *operator) roundUp(i int, v int64) (int64, error) {
	if op.gran == nil || op.gran[i] <= 1 {
		return v, nil
	}
	g := op.gran[i]
	if rem := v % g; rem != 0 {
		if v > math.MaxInt64-(g-rem) {
			return 0, fmt.Errorf("core: block of stream %q: %w", op.sys.Streams[i].Name, ErrOverflow)
		}
		v += g - rem
	}
	return v, nil
}

var bigOne = big.NewInt(1)

// ceilQuo returns ⌈a/b⌉ for b > 0, and false when it does not fit in an
// int64 (big.Int.Int64 is undefined there). quo and rem are scratch.
func ceilQuo(a, b, quo, rem *big.Int) (int64, bool) {
	// QuoRem truncates toward zero, which already rounds negative
	// quotients up; a positive remainder needs the +1.
	quo.QuoRem(a, b, rem)
	if rem.Sign() > 0 {
		quo.Add(quo, bigOne)
	}
	if !quo.IsInt64() {
		return 0, false
	}
	return quo.Int64(), true
}

// ratCeil returns ⌈r⌉, and false when it does not fit in an int64.
func ratCeil(r *big.Rat) (int64, bool) {
	var quo, rem big.Int
	return ceilQuo(r.Num(), r.Denom(), &quo, &rem)
}
