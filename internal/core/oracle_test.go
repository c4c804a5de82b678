package core

import (
	"errors"
	"math"
	"math/big"
	"reflect"
	"testing"

	"accelshare/internal/ilp"
)

// ilpOracle solves s with the paper's literal ILP statement of Algorithm 1
// (internal/ilp), the reference LeastFixedPoint is held to.
func ilpOracle(s *System, gran []int64, maxNodes int) ([]int64, error) {
	mu := make([]*big.Rat, len(s.Streams))
	for i := range mu {
		mu[i] = s.RatePerCycle(i)
	}
	return ilp.BlockSizes(mu, s.Chain.C0(), s.C1(), gran, maxNodes)
}

// TestCallerModelsMatchILPOracle: the models the command, the examples and
// the fleet controller size with ComputeBlockSizes get the ILP's optimum.
// Those callers used to cross-check every solve against the ILP at run
// time; the check lives here now.
func TestCallerModelsMatchILPOracle(t *testing.T) {
	admitDemo := &System{
		Chain:   Chain{Name: "demo", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1},
		ClockHz: 1,
	}
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		admitDemo.Streams = append(admitDemo.Streams, Stream{Name: name, Rate: big.NewRat(1, 75), Reconfig: 50})
	}
	resident := &System{
		Chain:   Chain{Name: "c0", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1},
		ClockHz: 1,
		Streams: []Stream{{Name: "r-c0", Rate: big.NewRat(1, 300), Reconfig: 50}},
	}
	quickstart := &System{
		Chain:   Chain{Name: "sharpen", AccelCosts: []uint64{4}, EntryCost: 2, ExitCost: 1},
		ClockHz: 100_000_000,
		Streams: []Stream{
			{Name: "camera", Rate: big.NewRat(2_000_000, 1), Reconfig: 800},
			{Name: "radar", Rate: big.NewRat(500_000, 1), Reconfig: 800},
		},
	}
	for _, c := range []struct {
		name string
		sys  *System
		gran []int64
		want []int64
	}{
		{"pal", palSystem(), nil, []int64{9831, 9831, 1229, 1229}},
		{"pal/8", palSystem(), []int64{8, 8, 8, 8}, []int64{9848, 9848, 1232, 1232}},
		{"admit-demo", admitDemo, nil, []int64{22, 22, 22, 22}},
		{"resident", resident, nil, nil},
		{"quickstart", quickstart, nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := ilpOracle(c.sys, c.gran, 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.want != nil && !reflect.DeepEqual(want, c.want) {
				t.Fatalf("ILP oracle %v, want %v", want, c.want)
			}
			res, err := c.sys.ComputeBlockSizesRounded(c.gran)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Blocks, want) {
				t.Fatalf("least fixed point %v != ILP oracle %v", res.Blocks, want)
			}
			for i := range c.sys.Streams {
				if c.sys.Streams[i].Block != want[i] {
					t.Fatalf("stream %d stored block %d, want %d", i, c.sys.Streams[i].Block, want[i])
				}
			}
		})
	}
}

// TestLeastFixedPointBudgetIsNotInfeasibility: running out of rounds on a
// feasible instance is ErrSolverBudget. The utilisation gate has already
// proved a least fixed point exists, so it must never read as
// ErrInfeasible.
func TestLeastFixedPointBudgetIsNotInfeasibility(t *testing.T) {
	s := palSystem()
	gran := []int64{8, 8, 8, 8}
	full, err := s.LeastFixedPoint(nil, gran, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds < 2 {
		t.Fatalf("seed is already the fixed point (%d rounds); the instance cannot exhaust one round", full.Rounds)
	}
	_, err = s.LeastFixedPoint(nil, gran, 1)
	if !errors.Is(err, ErrSolverBudget) || errors.Is(err, ErrInfeasible) {
		t.Fatalf("one-round budget: err = %v, want ErrSolverBudget and not ErrInfeasible", err)
	}
}

// nearSaturation is one stream at utilisation 1 − 10⁻¹⁸: feasible, but its
// least block, about 5.2·10¹⁹ samples, does not fit in an int64.
func nearSaturation() *System {
	return &System{
		Chain:   Chain{Name: "sat", AccelCosts: []uint64{1}, EntryCost: 1, ExitCost: 1},
		ClockHz: 1_000_000_000_000_000_000,
		Streams: []Stream{{Name: "s", Rate: big.NewRat(999_999_999_999_999_999, 1), Reconfig: 50}},
	}
}

// TestCeilingsReportOverflow: a ceiling beyond int64 fails the solve with
// ErrOverflow instead of wrapping (big.Int.Int64 is undefined there;
// TestRatCeil covers the helper itself).
func TestCeilingsReportOverflow(t *testing.T) {
	s := nearSaturation()
	if u := s.Utilization(); u.Cmp(big.NewRat(1, 1)) >= 0 {
		t.Fatalf("utilisation %s, want just below 1", u.RatString())
	}
	if res, err := s.LeastFixedPoint(nil, nil, 0); !errors.Is(err, ErrOverflow) {
		t.Fatalf("LeastFixedPoint = %+v, %v; want ErrOverflow", res, err)
	}
	if res, err := s.ComputeBlockSizes(); !errors.Is(err, ErrOverflow) || s.Streams[0].Block != 0 {
		t.Fatalf("ComputeBlockSizes = %+v, %v, stored block %d; want ErrOverflow and nothing stored",
			res, err, s.Streams[0].Block)
	}
	if f, err := s.ApplyOperator(nil, []int64{math.MaxInt64}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("ApplyOperator = %v, %v; want ErrOverflow", f, err)
	}
	if s.FeasibleBlocks([]int64{math.MaxInt64}) {
		t.Fatal("FeasibleBlocks accepted a block whose requirement overflows")
	}
}
