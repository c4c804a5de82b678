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
	out := make([]int64, len(blocks))
	if err := s.newOperator(granularity).step(blocks, out); err != nil {
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
	n := len(s.Streams)
	if start != nil && len(start) != n {
		return nil, fmt.Errorf("core: %d warm-start entries for %d streams", len(start), n)
	}
	op, eta, err := s.seed(granularity)
	if err != nil {
		return nil, err
	}
	for i := range start {
		if start[i] > eta[i] {
			if eta[i], err = op.roundUp(i, start[i]); err != nil {
				return nil, err
			}
		}
	}
	if maxRounds <= 0 {
		maxRounds = DefaultRounds
	}
	next := make([]int64, n)
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
			res := &BlockSizeResult{Blocks: eta, Rounds: round}
			for _, b := range eta {
				if res.Total > math.MaxInt64-b {
					return nil, fmt.Errorf("core: total block size: %w", ErrOverflow)
				}
				res.Total += b
			}
			return res, nil
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
	_, seed, err := s.seed(granularity)
	return seed, err
}

// seed validates s, applies the utilisation gate and returns the operator
// together with the relaxation seed (see RelaxationSeed).
func (s *System) seed(granularity []int64) (*operator, []int64, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(s.Streams)
	if granularity != nil && len(granularity) != n {
		return nil, nil, fmt.Errorf("core: %d granularities for %d streams", len(granularity), n)
	}
	slack := new(big.Rat).Sub(big.NewRat(1, 1), s.Utilization())
	if slack.Sign() <= 0 {
		return nil, nil, ErrInfeasible
	}
	op := s.newOperator(granularity)
	// K = (c1 + 2n·c0)/(1−ρ) is the value of c1 + c0·Σ(ηi+2) at the
	// relaxation's optimum, so the seed is F evaluated there.
	k := new(big.Rat).SetInt(new(big.Int).Mul(&op.c0, &op.twoN))
	k.Quo(k.Add(k, new(big.Rat).SetInt(&op.c1)), slack)
	eta := make([]int64, n)
	for i := range eta {
		v, err := op.at(i, k.Num(), k.Denom())
		if err != nil {
			return nil, nil, err
		}
		eta[i] = v
	}
	return op, eta, nil
}

// operator evaluates F for one system with exact integer arithmetic:
// μs = num[s]/den[s] samples per cycle, unreduced. The scratch integers
// make repeated steps allocation-free once they have grown.
type operator struct {
	sys          *System
	num, den     []big.Int
	c0, c1, twoN big.Int
	gran         []int64
	sum, x, a, b big.Int
	quo, rem     big.Int
}

func (s *System) newOperator(granularity []int64) *operator {
	n := len(s.Streams)
	op := &operator{sys: s, num: make([]big.Int, n), den: make([]big.Int, n), gran: granularity}
	clock := big.NewInt(s.ClockHz)
	for i := range s.Streams {
		op.num[i].Set(s.Streams[i].Rate.Num())
		op.den[i].Mul(s.Streams[i].Rate.Denom(), clock)
	}
	op.c0.SetUint64(s.Chain.C0())
	op.c1.SetUint64(s.C1())
	op.twoN.SetInt64(int64(2 * n))
	return op
}

// step sets out = F(eta).
func (op *operator) step(eta, out []int64) error {
	op.sum.Set(&op.twoN)
	for _, b := range eta {
		op.sum.Add(&op.sum, op.x.SetInt64(b))
	}
	op.sum.Mul(&op.sum, &op.c0)
	op.sum.Add(&op.sum, &op.c1)
	for i := range eta {
		v, err := op.at(i, &op.sum, nil)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// at returns roundUp(max(1, ⌈μi·xn/xd⌉), g_i); xd nil means 1.
func (op *operator) at(i int, xn, xd *big.Int) (int64, error) {
	op.a.Mul(&op.num[i], xn)
	den := &op.den[i]
	if xd != nil {
		den = op.b.Mul(den, xd)
	}
	v, ok := ceilQuo(&op.a, den, &op.quo, &op.rem)
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
