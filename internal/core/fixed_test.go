package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// The big.Int reference the fixed-width kernel is held to: the operator,
// the relaxation seed, the least fixed point and the input buffer bound
// with every value a big.Int or big.Rat, so no width limit applies.

type refOperator struct {
	sys      *System
	gran     []int64
	num, den []*big.Int
	c0, c1   *big.Int
}

func newRefOperator(s *System, gran []int64) *refOperator {
	op := &refOperator{sys: s, gran: gran, c0: new(big.Int).SetUint64(s.Chain.C0()), c1: new(big.Int).SetUint64(s.C1())}
	for i := range s.Streams {
		op.num = append(op.num, new(big.Int).Set(s.Streams[i].Rate.Num()))
		op.den = append(op.den, new(big.Int).Mul(s.Streams[i].Rate.Denom(), big.NewInt(s.ClockHz)))
	}
	return op
}

func (op *refOperator) at(i int, xn, xd *big.Int) (int64, error) {
	a := new(big.Int).Mul(op.num[i], xn)
	b := new(big.Int).Mul(op.den[i], xd)
	v, ok := ceilQuo(a, b, new(big.Int), new(big.Int))
	if !ok {
		return 0, fmt.Errorf("core: block of stream %q: %w", op.sys.Streams[i].Name, ErrOverflow)
	}
	if v < 1 {
		v = 1
	}
	return op.roundUp(i, v)
}

func (op *refOperator) roundUp(i int, v int64) (int64, error) {
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

func (op *refOperator) step(eta []int64) ([]int64, error) {
	sum := big.NewInt(int64(2 * len(eta)))
	for _, b := range eta {
		sum.Add(sum, big.NewInt(b))
	}
	sum.Mul(sum, op.c0).Add(sum, op.c1)
	out := make([]int64, len(eta))
	for i := range eta {
		v, err := op.at(i, sum, big.NewInt(1))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func refSeed(s *System, gran []int64) (*refOperator, []int64, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if gran != nil && len(gran) != len(s.Streams) {
		return nil, nil, fmt.Errorf("core: %d granularities for %d streams", len(gran), len(s.Streams))
	}
	slack := new(big.Rat).Sub(big.NewRat(1, 1), s.Utilization())
	if slack.Sign() <= 0 {
		return nil, nil, ErrInfeasible
	}
	op := newRefOperator(s, gran)
	k := new(big.Rat).SetInt(new(big.Int).Mul(op.c0, big.NewInt(int64(2*len(s.Streams)))))
	k.Quo(k.Add(k, new(big.Rat).SetInt(op.c1)), slack)
	eta := make([]int64, len(s.Streams))
	for i := range eta {
		v, err := op.at(i, k.Num(), k.Denom())
		if err != nil {
			return nil, nil, err
		}
		eta[i] = v
	}
	return op, eta, nil
}

func refLeastFixedPoint(s *System, start, gran []int64, maxRounds int) (*BlockSizeResult, error) {
	op, eta, err := refSeed(s, gran)
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
	for round := 1; round <= maxRounds; round++ {
		next, err := op.step(eta)
		if err != nil {
			return nil, err
		}
		changed := false
		for i, v := range next {
			if v > eta[i] {
				eta[i], changed = v, true
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

func refInputBufferBound(s *System, i int) (int64, error) {
	gamma, err := s.GammaHat(i)
	if err != nil {
		return 0, err
	}
	arrivals, ok := ratCeil(new(big.Rat).Mul(s.RatePerCycle(i), new(big.Rat).SetInt64(int64(gamma))))
	if !ok {
		return 0, fmt.Errorf("core: stream %q arrivals per service interval: %w", s.Streams[i].Name, ErrOverflow)
	}
	return s.Streams[i].Block + arrivals, nil
}

// sameOutcome fails t unless the two results and errors agree exactly.
func sameOutcome(t *testing.T, what string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	for _, sentinel := range []error{ErrOverflow, ErrInfeasible, ErrSolverBudget} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
		}
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %v, reference %v", what, got, want)
	}
}

// wideSystem draws a random system whose magnitudes reach widthRaw-chosen
// bit widths up to 63, so some steps fit in 64 bits and some fall back. A
// third of the systems have fleet-like rates 1/period over periods with a
// common base, a third draw each rate's share of the chain, and a third
// draw rates at random, most of them infeasible.
func wideSystem(rng *rand.Rand, n int, widthRaw uint8) (*System, []int64) {
	draw := func() uint64 {
		w := 1 + (int(widthRaw)+rng.Intn(64))%63
		return 1 + rng.Uint64()>>(64-w)
	}
	small := func() uint64 { return 1 + uint64(rng.Intn(1<<uint(rng.Intn(20)))) }
	pick := func() uint64 {
		if rng.Intn(3) == 0 {
			return small()
		}
		return draw()
	}
	s := &System{
		// An accelerator cost can pass 2^63, where Utilization reads c0 as
		// an int64.
		Chain: Chain{Name: "wide", AccelCosts: []uint64{pick() << uint(rng.Intn(2))}, EntryCost: small(), ExitCost: small()},
		// ClockHz up to 2^62: a rate denominator times it overflows 64 bits.
		ClockHz: 1 + int64(pick()>>1),
	}
	mode := rng.Intn(3)
	if mode == 0 {
		s.Chain.AccelCosts[0] = small()
		s.ClockHz = 1
	}
	var gran []int64
	if rng.Intn(2) == 0 {
		gran = make([]int64, n)
	}
	c0 := new(big.Int).SetUint64(s.Chain.C0())
	base := pick()
	for i := 0; i < n; i++ {
		num, den := new(big.Int).SetUint64(pick()), new(big.Int).SetUint64(pick())
		switch {
		case mode == 0:
			num.SetInt64(1)
			den.SetUint64(base).Mul(den, big.NewInt(int64(n*(1+rng.Intn(8)))))
			den.Mul(den, c0)
		case mode == 1:
			den.Mul(num, c0).Mul(den, big.NewInt(int64(n*(2+rng.Intn(64)))))
			den.Quo(den, big.NewInt(s.ClockHz)).Add(den, new(big.Int).SetUint64(small()))
		case rng.Intn(2) == 0: // a rate that needs more than 64 bits
			num.Lsh(num, uint(rng.Intn(80)))
		}
		s.Streams = append(s.Streams, Stream{
			Name:     fmt.Sprintf("w%d", i),
			Rate:     new(big.Rat).SetFrac(num, den),
			Reconfig: pick(),
		})
		if gran != nil {
			gran[i] = int64(pick() >> 1)
		}
	}
	return s, gran
}

// FuzzFixedWidthMatchesBig holds the fixed-width kernel, with its big.Int
// fallback, to the big.Int reference on random systems whose rates,
// reconfiguration costs, clocks and granularities reach near 2^63: the
// utilisation, each stream's load and their sum, the sum and differences
// of two systems' loads, the relaxation seed, operator steps at the seed
// and at random points, the least fixed point and the input buffer bounds
// must equal the reference, errors included.
func FuzzFixedWidthMatchesBig(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(20))
	f.Add(uint64(42), uint8(8), uint8(40))
	f.Add(uint64(99), uint8(3), uint8(62))
	f.Add(uint64(2024), uint8(16), uint8(55))
	f.Add(uint64(118), uint8(47), uint8(144)) // a seed quotient with a remainder
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, widthRaw uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		s, gran := wideSystem(rng, 1+int(nRaw)%16, widthRaw)

		if got, want := s.Load().Rat(), s.Utilization(); got.Cmp(want) != 0 {
			t.Fatalf("Load %s, Utilization %s", got.RatString(), want.RatString())
		}
		other, _ := wideSystem(rng, 1+int(nRaw)%16, widthRaw)
		if got, want := s.Load().Cmp(other.Load()), s.Utilization().Cmp(other.Utilization()); got != want {
			t.Fatalf("Load.Cmp %d, Utilization.Cmp %d", got, want)
		}
		sameLoadArithmetic(t, s, other)

		seed64, err := s.RelaxationSeed(gran)
		_, want, wantErr := refSeed(s, gran)
		sameOutcome(t, "seed", seed64, want, err, wantErr)

		points := [][]int64{}
		if err == nil {
			points = append(points, seed64)
		}
		for k := 0; k < 3; k++ {
			eta := make([]int64, len(s.Streams))
			for i := range eta {
				eta[i] = int64(rng.Uint64() >> (1 + rng.Intn(63)))
				if rng.Intn(8) == 0 {
					eta[i] = -eta[i]
				}
			}
			points = append(points, eta)
		}
		ref := newRefOperator(s, gran)
		for k, eta := range points {
			got, err := s.ApplyOperator(gran, eta)
			want, wantErr := ref.step(eta)
			sameOutcome(t, fmt.Sprintf("step %d at %v", k, eta), got, want, err, wantErr)
		}

		const rounds = 64
		res, err := s.LeastFixedPoint(nil, gran, rounds)
		wantRes, wantErr := refLeastFixedPoint(s, nil, gran, rounds)
		sameOutcome(t, "least fixed point", res, wantRes, err, wantErr)

		for i := range s.Streams {
			s.Streams[i].Block = 1 + int64(rng.Uint64()>>(1+rng.Intn(63)))
		}
		for i := range s.Streams {
			got, err := s.InputBufferBound(i)
			want, wantErr := refInputBufferBound(s, i)
			sameOutcome(t, fmt.Sprintf("input buffer bound %d", i), got, want, err, wantErr)
		}
	})
}

// sameLoadArithmetic fails t unless each stream's load is its term of
// Utilization, the loads sum to the system's, and the sum and both
// differences of the two systems' loads equal big.Rat's.
func sameLoadArithmetic(t *testing.T, s, other *System) {
	t.Helper()
	scale := big.NewRat(int64(s.Chain.C0()), s.ClockHz)
	var sum Load
	for i := range s.Streams {
		got, want := s.StreamLoad(s.Streams[i].Rate), new(big.Rat).Mul(s.Streams[i].Rate, scale)
		if got.Rat().Cmp(want) != 0 {
			t.Fatalf("StreamLoad(%s) = %s, want %s", s.Streams[i].Rate.RatString(), got.Rat().RatString(), want.RatString())
		}
		sum = sum.Add(got)
	}
	if sum.Cmp(s.Load()) != 0 {
		t.Fatalf("streams' loads sum to %s, Load %s", sum.Rat().RatString(), s.Load().Rat().RatString())
	}
	a, b := s.Load(), other.Load()
	ua, ub := s.Utilization(), other.Utilization()
	for _, c := range []struct {
		op        string
		got, want *big.Rat
	}{
		{"a+b", a.Add(b).Rat(), new(big.Rat).Add(ua, ub)},
		{"a-b", a.Sub(b).Rat(), new(big.Rat).Sub(ua, ub)},
		{"b-a", b.Sub(a).Rat(), new(big.Rat).Sub(ub, ua)},
	} {
		if c.got.Cmp(c.want) != 0 {
			t.Fatalf("%s = %s, big.Rat %s", c.op, c.got.RatString(), c.want.RatString())
		}
	}
}

// TestLoadArithmeticPaths pins both paths of Load arithmetic to big.Rat:
// values that fit in 64 bits, a sum whose denominator does not, a
// negative difference, a wide operand, and a wide difference that fits
// again. The zero Load is 0.
func TestLoadArithmeticPaths(t *testing.T) {
	rat := func(a, b uint64) *big.Rat {
		return new(big.Rat).SetFrac(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
	}
	p, q := rat(1, 1<<63-25), rat(1, 1<<63-259) // their sum needs 126 bits
	wide := LoadOf(p).Add(LoadOf(q))
	for _, c := range []struct {
		name     string
		got      Load
		want     *big.Rat
		fits     bool
		zeroLoad bool
	}{
		{"sum", LoadOf(big.NewRat(1, 4)).Add(LoadOf(big.NewRat(1, 6))), big.NewRat(5, 12), true, false},
		{"difference", LoadOf(big.NewRat(1, 4)).Sub(LoadOf(big.NewRat(1, 6))), big.NewRat(1, 12), true, false},
		{"zero plus", Load{}.Add(LoadOf(big.NewRat(2, 3))), big.NewRat(2, 3), true, false},
		{"equal difference", LoadOf(big.NewRat(2, 3)).Sub(LoadOf(big.NewRat(2, 3))), new(big.Rat), true, true},
		{"wide sum", wide, new(big.Rat).Add(p, q), false, false},
		{"negative", LoadOf(big.NewRat(1, 6)).Sub(LoadOf(big.NewRat(1, 4))), big.NewRat(-1, 12), false, false},
		{"wide operand", wide.Sub(LoadOf(q)), p, true, false},
		{"wide difference", wide.Sub(wide), new(big.Rat), true, true},
		{"overflowing sum", LoadOf(rat(1<<63, 1)).Add(LoadOf(rat(1<<63, 1))), rat(1<<63, 1).Add(rat(1<<63, 1), rat(1<<63, 1)), false, false},
	} {
		if c.got.Rat().Cmp(c.want) != 0 {
			t.Errorf("%s = %s, want %s", c.name, c.got.Rat().RatString(), c.want.RatString())
		}
		if fits := c.got.wide == nil; fits != c.fits {
			t.Errorf("%s fits in 64 bits = %v, want %v", c.name, fits, c.fits)
		}
		if z := c.got.Cmp(Load{}) == 0; z != c.zeroLoad {
			t.Errorf("%s equals the zero Load = %v, want %v", c.name, z, c.zeroLoad)
		}
	}
}

// TestFixedWidthFallback: steps whose values need more than 64 bits run on
// big.Int with the reference's results — a rate denominator times the
// clock beyond 64 bits sends every step there, and reconfiguration costs
// summing to near 2^64 overflow c1 + c0·Σ(ηi+2) while the rates still fit.
func TestFixedWidthFallback(t *testing.T) {
	chain := Chain{Name: "c", AccelCosts: []uint64{1}, EntryCost: 1, ExitCost: 1}
	wideRates := &System{Chain: chain, ClockHz: 1 << 30, Streams: []Stream{
		{Name: "a", Rate: big.NewRat(3, 1<<40), Reconfig: 50},
		{Name: "b", Rate: big.NewRat(5, 1<<40), Reconfig: 50},
	}}
	wideCosts := &System{Chain: chain, ClockHz: 1, Streams: []Stream{
		{Name: "a", Rate: big.NewRat(1, 1<<40), Reconfig: math.MaxInt64},
		{Name: "b", Rate: big.NewRat(1, 1<<41), Reconfig: math.MaxInt64},
	}}
	for _, c := range []struct {
		name string
		sys  *System
		fits bool
	}{{"rates", wideRates, false}, {"costs", wideCosts, true}} {
		t.Run(c.name, func(t *testing.T) {
			gran := []int64{2, 3}
			res, err := c.sys.LeastFixedPoint(nil, gran, 0)
			want, wantErr := refLeastFixedPoint(c.sys, nil, gran, DefaultRounds)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "least fixed point", res, want, err, wantErr)
			var op operator
			op.reset(c.sys, gran)
			if op.fits != c.fits {
				t.Fatalf("rates fit in 64 bits = %v, want %v", op.fits, c.fits)
			}
			if op.step64(res.Blocks, make([]int64, 2)) {
				t.Fatal("the step fit in 64 bits; the fallback did not run")
			}
		})
	}
}

// zeroAllocs fails t unless fn allocates nothing per run.
func zeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if a := testing.AllocsPerRun(200, fn); a != 0 {
		t.Fatalf("%s: %v allocs per run, want 0", what, a)
	}
}

// TestOperatorZeroAlloc backs the //accellint:noalloc annotation on the
// fixed-width operator step: once a Scratch has grown, Kleene steps on the
// §VI-A model allocate nothing.
func TestOperatorZeroAlloc(t *testing.T) {
	s := palSystem()
	gran := []int64{8, 8, 8, 8}
	var sc Scratch
	res, err := s.LeastFixedPointIn(&sc, nil, gran, 0)
	if err != nil {
		t.Fatal(err)
	}
	eta := append([]int64(nil), res.Blocks...)
	out := make([]int64, len(eta))
	zeroAllocs(t, "step64", func() {
		if !sc.op.step64(eta, out) {
			t.Fatal("step did not fit in 64 bits")
		}
	})
	zeroAllocs(t, "LeastFixedPointIn", func() {
		if _, err := s.LeastFixedPointIn(&sc, eta, gran, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSeedZeroAlloc backs the annotations on the seed: the utilisation
// gate and the relaxation seed run without Utilization or a big.Rat.
func TestSeedZeroAlloc(t *testing.T) {
	s := palSystem()
	var sc Scratch
	gran := []int64{8, 8, 8, 8}
	if err := s.seed(&sc, gran); err != nil {
		t.Fatal(err)
	}
	_, want, err := refSeed(s, gran)
	if err != nil || !reflect.DeepEqual(sc.eta, want) {
		t.Fatalf("seed %v, reference %v (%v)", sc.eta, want, err)
	}
	zeroAllocs(t, "seed", func() {
		if err := s.seed(&sc, gran); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInputBufferBoundZeroAlloc backs the annotation on the fixed-width
// input buffer bound.
func TestInputBufferBoundZeroAlloc(t *testing.T) {
	s := palSystem()
	if _, err := s.ComputeBlockSizesRounded([]int64{8, 8, 8, 8}); err != nil {
		t.Fatal(err)
	}
	gamma, err := s.RoundDuration()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Streams {
		got, err := s.InputBufferBoundOver(i, gamma)
		want, wantErr := refInputBufferBound(s, i)
		sameOutcome(t, "input buffer bound", got, want, err, wantErr)
	}
	zeroAllocs(t, "InputBufferBoundOver", func() {
		if _, err := s.InputBufferBoundOver(2, gamma); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoadCmpZeroAlloc backs the annotation on Load.Cmp: two loads in 64
// bits compare without big.Rat.
func TestLoadCmpZeroAlloc(t *testing.T) {
	a, b := palSystem(), palSystem()
	b.Streams = b.Streams[:2]
	la, lb := a.Load(), b.Load()
	if la.Cmp(lb) != 1 || lb.Cmp(la) != -1 || la.Cmp(la) != 0 {
		t.Fatalf("Cmp of %s and %s", la.Rat().RatString(), lb.Rat().RatString())
	}
	zeroAllocs(t, "Load.Cmp", func() { la.Cmp(lb) })
}

// loadSink keeps the guarded load arithmetic from being optimised away.
var loadSink Load

// TestLoadArithmeticZeroAlloc backs the annotations on StreamLoad,
// Load.Add and Load.Sub: on the §VI-A model every stream's load, the sum
// of the loads and a difference fit in 64 bits and allocate nothing.
func TestLoadArithmeticZeroAlloc(t *testing.T) {
	s := palSystem()
	load, rate := s.Load(), s.Streams[2].Rate
	one := s.StreamLoad(rate)
	if one.wide != nil || load.wide != nil {
		t.Fatal("the §VI-A loads do not fit in 64 bits")
	}
	if got := load.Sub(one).Add(one); got.Cmp(load) != 0 {
		t.Fatalf("load - one + one = %s, want %s", got.Rat().RatString(), load.Rat().RatString())
	}
	zeroAllocs(t, "StreamLoad", func() { loadSink = s.StreamLoad(rate) })
	zeroAllocs(t, "Load.Add", func() { loadSink = load.Add(one) })
	zeroAllocs(t, "Load.Sub", func() { loadSink = load.Sub(one) })
}
