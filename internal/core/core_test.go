package core

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"accelshare/internal/ilp"
)

// palSystem reproduces the paper's §VI-A configuration: four streams (two
// per audio channel decoding path) share one CORDIC + one FIR-LPF chain
// through one gateway pair. ε = 15 cycles/sample, ρA = δ = 1 cycle/sample,
// Rs = 4100 cycles, clock 100 MHz. First-stage streams run at 64×44.1 kHz,
// second-stage at 8×44.1 kHz (the chain downsamples by 8 per stage).
func palSystem() *System {
	mk := func(name string, rate int64) Stream {
		return Stream{Name: name, Rate: big.NewRat(rate, 1), Reconfig: 4100}
	}
	return &System{
		Chain: Chain{
			Name:       "cordic+fir",
			AccelCosts: []uint64{1, 1},
			EntryCost:  15,
			ExitCost:   1,
			NICapacity: 2,
		},
		Streams: []Stream{
			mk("ch1.stage1", 44100*64),
			mk("ch2.stage1", 44100*64),
			mk("ch1.stage2", 44100*8),
			mk("ch2.stage2", 44100*8),
		},
		ClockHz: 100_000_000,
	}
}

func twoStreamSystem() *System {
	return &System{
		Chain: Chain{Name: "acc", AccelCosts: []uint64{4}, EntryCost: 2, ExitCost: 1, NICapacity: 2},
		Streams: []Stream{
			{Name: "s0", Rate: big.NewRat(1_000_000, 1), Reconfig: 100},
			{Name: "s1", Rate: big.NewRat(500_000, 1), Reconfig: 100},
		},
		ClockHz: 100_000_000,
	}
}

func TestChainC0(t *testing.T) {
	c := Chain{AccelCosts: []uint64{1, 7, 3}, EntryCost: 5, ExitCost: 2, NICapacity: 2}
	if c.C0() != 7 {
		t.Errorf("C0 = %d, want 7", c.C0())
	}
	c2 := Chain{AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1, NICapacity: 2}
	if c2.C0() != 15 {
		t.Errorf("C0 = %d, want 15", c2.C0())
	}
}

func TestValidateErrors(t *testing.T) {
	s := palSystem()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	bad := s.Clone()
	bad.Chain.AccelCosts = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty chain accepted")
	}
	bad = s.Clone()
	bad.Streams = nil
	if err := bad.Validate(); err == nil {
		t.Error("no streams accepted")
	}
	bad = s.Clone()
	bad.ClockHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	bad = s.Clone()
	bad.Streams[0].Rate = big.NewRat(-1, 1)
	if err := bad.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	bad = s.Clone()
	bad.Chain.NICapacity = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero NI capacity accepted")
	}
}

func TestTauHatEquation2(t *testing.T) {
	s := palSystem()
	s.Streams[0].Block = 100
	tau, err := s.TauHat(0)
	if err != nil {
		t.Fatal(err)
	}
	// τ̂ = 4100 + (100+2)·15 = 5630.
	if tau != 5630 {
		t.Errorf("TauHat = %d, want 5630", tau)
	}
	s.Streams[1].Block = 0
	if _, err := s.TauHat(1); err == nil {
		t.Error("TauHat with unset block should error")
	}
}

func TestTauHatCheckpointed(t *testing.T) {
	s := palSystem()
	s.Streams[0].Block = 100
	// K = 25 → n = ⌈100/25⌉ = 4 sub-blocks, each quiescing the pipeline:
	// τ̂(K) = 4100 + (100 + 2·4)·15 + (4−1)·60 = 4100 + 1620 + 180 = 5900.
	tau, err := s.TauHatCheckpointed(0, 25, 60)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 5900 {
		t.Errorf("TauHatCheckpointed(25, 60) = %d, want 5900", tau)
	}
	// K ≤ 0 and K ≥ η degenerate to the plain Eq. 2 term.
	plain, _ := s.TauHat(0)
	for _, k := range []int64{0, -1, 100, 500} {
		tau, err := s.TauHatCheckpointed(0, k, 60)
		if err != nil {
			t.Fatal(err)
		}
		if tau != plain {
			t.Errorf("TauHatCheckpointed(k=%d) = %d, want plain tau-hat %d", k, tau, plain)
		}
	}
	// Non-dividing K: ⌈100/30⌉ = 4 sub-blocks again.
	tau, err = s.TauHatCheckpointed(0, 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 5900 {
		t.Errorf("TauHatCheckpointed(30, 60) = %d, want 5900", tau)
	}
	s.Streams[1].Block = 0
	if _, err := s.TauHatCheckpointed(1, 25, 60); err == nil {
		t.Error("TauHatCheckpointed with unset block should error")
	}
}

func TestResumeBound(t *testing.T) {
	s := palSystem()
	s.Streams[0].Block = 100
	// One resume reloads Rs and replays ≤ K samples plus the quiesce:
	// 4100 + (25+2)·15 = 4505.
	b, err := s.ResumeBound(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if b != 4505 {
		t.Errorf("ResumeBound(25) = %d, want 4505", b)
	}
	// Without checkpointing the resume replays the whole block.
	b, err = s.ResumeBound(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(4100 + (100+2)*15); b != want {
		t.Errorf("ResumeBound(0) = %d, want %d (full-block replay)", b, want)
	}
	s.Streams[1].Block = 0
	if _, err := s.ResumeBound(1, 25); err == nil {
		t.Error("ResumeBound with unset block should error")
	}
}

// TestResumeBoundClampsPastBlock: a checkpoint interval past the block is
// no checkpointing at all, so K = ηs + 1 replays the whole block, as K = ηs
// does.
func TestResumeBoundClampsPastBlock(t *testing.T) {
	s := palSystem()
	s.Streams[0].Block = 100
	at, err := s.ResumeBound(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	past, err := s.ResumeBound(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(4100 + (100+2)*15); at != want || past != want {
		t.Errorf("ResumeBound(ηs) = %d, ResumeBound(ηs+1) = %d, want %d (full-block replay)", at, past, want)
	}
}

// TestWorstCaseSampleLatencyPAL pins L̂ = ⌈(η−1)/μ⌉ + γ̂s on the §VI-A
// model at its granularity-8 blocks (9848, 9848, 1232, 1232; γ̂ = 348,920):
// stage 1 (μ = 2,822,400/10⁸) waits ⌈9847/μ⌉ = 348,888 cycles, stage 2
// (μ = 352,800/10⁸) ⌈1231/μ⌉ = 348,923.
func TestWorstCaseSampleLatencyPAL(t *testing.T) {
	s := palSystem()
	res, err := s.ComputeBlockSizesRounded([]int64{8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Streams {
		s.Streams[i].Block = res.Blocks[i]
	}
	for i, want := range []uint64{697_808, 697_808, 697_843, 697_843} {
		got, err := s.WorstCaseSampleLatency(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: WorstCaseSampleLatency = %d, want %d", s.Streams[i].Name, got, want)
		}
	}
}

func TestGammaIsSumOfTaus(t *testing.T) {
	s := palSystem()
	for i := range s.Streams {
		s.Streams[i].Block = int64(100 * (i + 1))
	}
	var sum uint64
	for i := range s.Streams {
		tau, err := s.TauHat(i)
		if err != nil {
			t.Fatal(err)
		}
		sum += tau
	}
	for i := range s.Streams {
		gamma, err := s.GammaHat(i)
		if err != nil {
			t.Fatal(err)
		}
		if gamma != sum {
			t.Errorf("GammaHat(%d) = %d, want Σ τ̂ = %d", i, gamma, sum)
		}
		eps, err := s.EpsilonHat(i)
		if err != nil {
			t.Fatal(err)
		}
		tau, _ := s.TauHat(i)
		if eps+tau != gamma {
			t.Errorf("ε̂+τ̂ = %d, γ = %d", eps+tau, gamma)
		}
	}
	rd, err := s.RoundDuration()
	if err != nil || rd != sum {
		t.Errorf("RoundDuration = %d (%v), want %d", rd, err, sum)
	}
}

func TestComputeBlockSizesPAL(t *testing.T) {
	s := palSystem()
	res, err := s.ComputeBlockSizes()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PAL block sizes: %v (paper: 10136, 10136, 1267, 1267)", res.Blocks)
	// The two stage-1 streams and the two stage-2 streams are symmetric.
	if res.Blocks[0] != res.Blocks[1] || res.Blocks[2] != res.Blocks[3] {
		t.Errorf("symmetric streams got asymmetric blocks: %v", res.Blocks)
	}
	// The 8:1 downsampling ratio must show up exactly in the block sizes
	// (the paper: 10136 = 8 × 1267).
	if res.Blocks[0] != 8*res.Blocks[2] && res.Blocks[0] != 8*res.Blocks[2]-8+1 {
		// Allow ±1 ceil effects on the exact multiple.
		ratio := float64(res.Blocks[0]) / float64(res.Blocks[2])
		if ratio < 7.95 || ratio > 8.05 {
			t.Errorf("stage ratio = %v, want ~8", ratio)
		}
	}
	// Magnitudes within 5% of the paper's numbers.
	if res.Blocks[0] < 9600 || res.Blocks[0] > 10700 {
		t.Errorf("stage-1 block = %d, paper reports 10136 (want within ~5%%)", res.Blocks[0])
	}
	if res.Blocks[2] < 1200 || res.Blocks[2] > 1340 {
		t.Errorf("stage-2 block = %d, paper reports 1267 (want within ~5%%)", res.Blocks[2])
	}
	// The computed sizes must satisfy Eq. 5/6 and the paper's own sizes must
	// also be feasible in our model.
	if !s.FeasibleBlocks(res.Blocks) {
		t.Error("computed blocks violate Eq. 6")
	}
	if !s.FeasibleBlocks([]int64{10136, 10136, 1267, 1267}) {
		t.Error("paper's published block sizes are infeasible in our model")
	}
	if err := s.VerifyThroughput(); err != nil {
		t.Errorf("VerifyThroughput: %v", err)
	}
}

func TestComputeBlockSizesRoundedPAL(t *testing.T) {
	// The chain down-samples by 8, so implementable blocks must be
	// multiples of 8 (the paper's 10136 = 8·1267 obeys this too).
	s := palSystem()
	res, err := s.ComputeBlockSizesRounded([]int64{8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9848, 9848, 1232, 1232}
	for i := range want {
		if res.Blocks[i] != want[i] {
			t.Fatalf("rounded blocks = %v, want %v", res.Blocks, want)
		}
		if res.Blocks[i]%8 != 0 {
			t.Errorf("block %d not a multiple of 8", i)
		}
	}
	if !s.FeasibleBlocks(res.Blocks) {
		t.Error("rounded blocks infeasible")
	}
	// Minimality at the granularity: stepping any stream down by 8 breaks
	// feasibility.
	for i := range res.Blocks {
		dec := append([]int64(nil), res.Blocks...)
		dec[i] -= 8
		if s.FeasibleBlocks(dec) {
			t.Errorf("blocks still feasible after -8 on stream %d: %v", i, dec)
		}
	}
	// Naive rounding of the unconstrained minimum must NOT be assumed
	// feasible — that is the whole reason this solver exists.
	if s.FeasibleBlocks([]int64{9832, 9832, 1232, 1232}) {
		t.Error("naively rounded blocks unexpectedly feasible; test premise broken")
	}
	// Granularity 1 degenerates to the plain solver.
	plain, err := s.ComputeBlockSizesRounded([]int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.LeastFixedPoint(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Blocks {
		if plain.Blocks[i] != fp.Blocks[i] {
			t.Fatalf("granularity-1 %v != plain %v", plain.Blocks, fp.Blocks)
		}
	}
	// Length mismatch is rejected.
	if _, err := s.ComputeBlockSizesRounded([]int64{8}); err == nil {
		t.Error("wrong granularity length accepted")
	}
}

func TestBlockSizesAreMinimal(t *testing.T) {
	s := palSystem()
	res, err := s.ComputeBlockSizes()
	if err != nil {
		t.Fatal(err)
	}
	// Decreasing any single block by 1 must violate feasibility (the fixed
	// point is the componentwise-minimal feasible vector).
	for i := range res.Blocks {
		dec := append([]int64(nil), res.Blocks...)
		dec[i]--
		if s.FeasibleBlocks(dec) {
			t.Errorf("blocks still feasible after decrementing stream %d: %v", i, dec)
		}
	}
}

func TestBlockSizeILPMatchesFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3)
		s := &System{
			Chain: Chain{
				Name:       "c",
				AccelCosts: []uint64{uint64(1 + rng.Intn(4))},
				EntryCost:  uint64(1 + rng.Intn(16)),
				ExitCost:   uint64(1 + rng.Intn(3)),
				NICapacity: 2,
			},
			ClockHz: 100_000_000,
		}
		for i := 0; i < n; i++ {
			s.Streams = append(s.Streams, Stream{
				Name:     string(rune('a' + i)),
				Rate:     big.NewRat(int64(10_000+rng.Intn(2_000_000)), 1),
				Reconfig: uint64(rng.Intn(5000)),
			})
		}
		if s.Utilization().Cmp(big.NewRat(9, 10)) > 0 {
			continue // too close to saturation; both solvers blow up sizes
		}
		fp, errFP := s.LeastFixedPoint(nil, nil, 0)
		il, errIL := ilpOracle(s, nil, 0)
		if (errFP == nil) != (errIL == nil) {
			t.Fatalf("trial %d: fixed point err=%v, ILP err=%v", trial, errFP, errIL)
		}
		if errFP != nil {
			continue
		}
		for i := range fp.Blocks {
			if fp.Blocks[i] != il[i] {
				t.Fatalf("trial %d stream %d: fixed point %v vs ILP %v", trial, i, fp.Blocks, il)
			}
		}
	}
}

func TestComputeBlockSizesInfeasible(t *testing.T) {
	// Demand exceeding the gateway: 2 streams × 4 MS/s × 15 cycles = 120%.
	s := &System{
		Chain:   Chain{Name: "c", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1, NICapacity: 2},
		ClockHz: 100_000_000,
		Streams: []Stream{
			{Name: "a", Rate: big.NewRat(4_000_000, 1), Reconfig: 100},
			{Name: "b", Rate: big.NewRat(4_000_000, 1), Reconfig: 100},
		},
	}
	if _, err := s.LeastFixedPoint(nil, nil, 0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("fixed point err = %v, want ErrInfeasible", err)
	}
	if _, err := ilpOracle(s, nil, 0); !errors.Is(err, ilp.ErrInfeasible) {
		t.Errorf("ILP oracle err = %v, want ilp.ErrInfeasible", err)
	}
}

func TestVerifyThroughputDetectsViolation(t *testing.T) {
	s := twoStreamSystem()
	if _, err := s.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyThroughput(); err != nil {
		t.Fatalf("computed blocks should verify: %v", err)
	}
	// Shrink a block below minimum: verification must fail.
	s.Streams[0].Block = 1
	if err := s.VerifyThroughput(); err == nil {
		t.Error("undersized block passed verification")
	}
}

func TestGuaranteedRateMatchesEq5(t *testing.T) {
	s := twoStreamSystem()
	s.Streams[0].Block = 500
	s.Streams[1].Block = 300
	gamma, err := s.GammaHat(0)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Rat).Mul(big.NewRat(500, int64(gamma)), big.NewRat(100_000_000, 1))
	got, err := s.GuaranteedRate(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("GuaranteedRate = %v, want %v", got, want)
	}
}

func TestUtilizationPAL(t *testing.T) {
	s := palSystem()
	u := s.Utilization()
	// 2×2.8224e6×15/1e8 + 2×352.8e3×15/1e8 = 0.84672 + 0.10584 = 0.95256.
	want := big.NewRat(95256, 100000)
	if u.Cmp(want) != 0 {
		t.Errorf("Utilization = %v, want %v", u, want)
	}
}

// TestUtilizationMatchesPerStreamSum: Utilization's single c0/ClockHz
// scaling equals the per-stream reference Σ RatePerCycle(i)·c0 exactly, on
// random models at the fleet clock (1, rates in samples/cycle) and the PAL
// clock, with c0 > 1 and fractional rates; an empty model is zero, even
// with no clock set.
func TestUtilizationMatchesPerStreamSum(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, clock := range []int64{1, 100_000_000} {
		for trial := 0; trial < 50; trial++ {
			s := &System{
				Chain: Chain{
					Name:       "c",
					AccelCosts: []uint64{uint64(1 + rng.Intn(8)), uint64(1 + rng.Intn(8))},
					EntryCost:  uint64(2 + rng.Intn(15)),
					ExitCost:   uint64(1 + rng.Intn(3)),
					NICapacity: 2,
				},
				ClockHz: clock,
			}
			maxNum := int64(4)
			if clock > 1 {
				maxNum = 5_000_000
			}
			for i := 1 + rng.Intn(12); i > 0; i-- {
				s.Streams = append(s.Streams, Stream{
					Name: string(rune('a' + i)),
					Rate: big.NewRat(1+rng.Int63n(maxNum), 1+rng.Int63n(1000)),
				})
			}
			c0 := new(big.Rat).SetInt64(int64(s.Chain.C0()))
			want := new(big.Rat)
			for i := range s.Streams {
				want.Add(want, new(big.Rat).Mul(s.RatePerCycle(i), c0))
			}
			got := s.Utilization()
			if got.Cmp(want) != 0 || got.String() != want.String() {
				t.Fatalf("clock %d trial %d (c0=%d, %d streams): Utilization = %s, reference %s",
					clock, trial, s.Chain.C0(), len(s.Streams), got, want)
			}
		}
	}
	if u := (&System{}).Utilization(); u.Sign() != 0 {
		t.Errorf("empty model utilisation = %s, want 0", u)
	}
}

func TestC1IsSumOfReconfigs(t *testing.T) {
	s := palSystem()
	if s.C1() != 4*4100 {
		t.Errorf("C1 = %d, want 16400", s.C1())
	}
}

func TestInputBufferBoundPAL(t *testing.T) {
	s := palSystem()
	if _, err := s.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	b0, err := s.InputBufferBound(0)
	if err != nil {
		t.Fatal(err)
	}
	// γ̂ arrivals at 2.8224 MS/s over ~348k cycles ≈ one more block: the
	// bound lands near 2η.
	if b0 < 2*s.Streams[0].Block || b0 > 2*s.Streams[0].Block+16 {
		t.Errorf("input bound = %d, expected ≈ 2η = %d", b0, 2*s.Streams[0].Block)
	}
	ob, err := s.OutputBufferBound(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ob != 2*s.Streams[0].Block/8 {
		t.Errorf("output bound = %d", ob)
	}
	if _, err := s.OutputBufferBound(0, 0); err != nil {
		t.Log("decimation 0 defaults to 1 (no error expected)")
	}
}

func TestScheduleBlockBoundProperty(t *testing.T) {
	// Random chains and block sizes: the measured block time never exceeds
	// the Eq. 2 bound.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nAcc := 1 + rng.Intn(3)
		costs := make([]uint64, nAcc)
		for i := range costs {
			costs[i] = uint64(1 + rng.Intn(6))
		}
		s := &System{
			Chain: Chain{
				Name:       "r",
				AccelCosts: costs,
				EntryCost:  uint64(1 + rng.Intn(20)),
				ExitCost:   uint64(1 + rng.Intn(4)),
				NICapacity: 2,
			},
			ClockHz: 100_000_000,
			Streams: []Stream{{
				Name:     "s",
				Rate:     big.NewRat(1000, 1),
				Reconfig: uint64(rng.Intn(2000)),
				Block:    int64(1 + rng.Intn(64)),
			}},
		}
		sched, err := s.ScheduleBlock(0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sched.Tau > sched.TauHat {
			t.Fatalf("trial %d: τ = %d > τ̂ = %d (chain %v ε=%d δ=%d Rs=%d η=%d)",
				trial, sched.Tau, sched.TauHat, costs, s.Chain.EntryCost, s.Chain.ExitCost,
				s.Streams[0].Reconfig, s.Streams[0].Block)
		}
	}
}
