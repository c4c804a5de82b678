package accelshare

// One benchmark per table/figure of the paper's evaluation plus the
// DESIGN.md ablations. Each bench regenerates its artifact's numbers per
// iteration (and asserts the result is still the expected one, so `go test
// -bench` doubles as a reproduction check).

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/buffer"
	"accelshare/internal/core"
	"accelshare/internal/cost"
	"accelshare/internal/dataflow"
	"accelshare/internal/gateway"
	"accelshare/internal/ilp"
	"accelshare/internal/mpsoc"
	"accelshare/internal/pal"
)

func palModel() *core.System {
	mk := func(name string, rate int64) core.Stream {
		return core.Stream{Name: name, Rate: big.NewRat(rate, 1), Reconfig: 4100}
	}
	return &core.System{
		Chain: core.Chain{
			Name:       "cordic+fir",
			AccelCosts: []uint64{1, 1},
			EntryCost:  15,
			ExitCost:   1,
		},
		Streams: []core.Stream{
			mk("ch1.stage1", 44100*64), mk("ch2.stage1", 44100*64),
			mk("ch1.stage2", 44100*8), mk("ch2.stage2", 44100*8),
		},
		ClockHz: 100_000_000,
	}
}

// BenchmarkFig6Schedule regenerates the Fig. 6 execution schedule: one block
// of the PAL stage-1 stream simulated through the CSDF model.
func BenchmarkFig6Schedule(b *testing.B) {
	s := palModel()
	s.Streams[0].Block = 1024
	for i := 0; i < b.N; i++ {
		sched, err := s.ScheduleBlock(0)
		if err != nil {
			b.Fatal(err)
		}
		if sched.Tau > sched.TauHat {
			b.Fatalf("τ = %d > τ̂ = %d", sched.Tau, sched.TauHat)
		}
	}
}

// BenchmarkTauBound is E2: the Eq. 2 bound checked against the simulated
// schedule across a block-size sweep.
func BenchmarkTauBound(b *testing.B) {
	s := palModel()
	for i := 0; i < b.N; i++ {
		for _, eta := range []int64{1, 16, 256} {
			s.Streams[0].Block = eta
			sched, err := s.ScheduleBlock(0)
			if err != nil {
				b.Fatal(err)
			}
			if sched.Tau > sched.TauHat {
				b.Fatal("bound violated")
			}
		}
	}
}

// BenchmarkFig8Buffers regenerates the Fig. 8b table: exact minimum buffer
// capacities for ηs = 1..5, asserting the paper's non-monotone values.
func BenchmarkFig8Buffers(b *testing.B) {
	want := []int64{5, 6, 7, 8, 5}
	for i := 0; i < b.N; i++ {
		for eta := int64(1); eta <= 5; eta++ {
			g := dataflow.NewGraph("fig8")
			va := g.AddActor("vA", 5)
			vb := g.AddActor("vB", 0)
			fwd, back := g.AddBuffer("ab", va, vb, dataflow.Const(5), dataflow.Const(eta), 1)
			s := &buffer.Sizer{G: g, Channels: []buffer.Channel{{Fwd: fwd, Back: back}}, Monitor: va}
			maxTh, err := s.MaxThroughput()
			if err != nil {
				b.Fatal(err)
			}
			caps, err := s.MinCapacitiesForThroughput(maxTh)
			if err != nil {
				b.Fatal(err)
			}
			if caps[0] != want[eta-1] {
				b.Fatalf("η=%d: α=%d, want %d", eta, caps[0], want[eta-1])
			}
		}
	}
}

// palILP solves the PAL configuration with the literal ILP statement of
// Algorithm 1, the test oracle of the production fixed point.
func palILP() ([]int64, error) {
	s := palModel()
	mu := make([]*big.Rat, len(s.Streams))
	for i := range mu {
		mu[i] = s.RatePerCycle(i)
	}
	return ilp.BlockSizes(mu, s.Chain.C0(), s.C1(), nil, 0)
}

// BenchmarkBlockSizeILP is E4: Algorithm 1 on the PAL configuration via the
// exact ILP.
func BenchmarkBlockSizeILP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blocks, err := palILP()
		if err != nil {
			b.Fatal(err)
		}
		if blocks[0] != 9831 || blocks[2] != 1229 {
			b.Fatalf("blocks = %v", blocks)
		}
	}
}

// BenchmarkBlockSizeSolvers is A4: the ILP oracle versus the production
// least fixed point seeded from the relaxation.
func BenchmarkBlockSizeSolvers(b *testing.B) {
	b.Run("ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := palILP(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixedpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := palModel()
			if _, err := s.LeastFixedPoint(nil, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runPAL decodes 5 ms of audio on the §VI-A demonstrator.
func runPAL(b *testing.B) *pal.Decoder {
	p := pal.DefaultParams()
	p.Seconds = 0.005
	d, err := pal.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	d.Run(1_500_000)
	return d
}

// warmPAL builds and runs one platform before the timer starts. At the
// default 100 ms benchtime the PAL benchmarks run only 3–4 iterations, so
// one-time set-up allocations would otherwise move allocs/op by one or two
// on identical code.
func warmPAL(b *testing.B) {
	runPAL(b)
	b.ResetTimer()
}

// BenchmarkPALDecoder is E5: the §VI-A demonstrator decoding 5 ms of audio
// per iteration on the cycle-level platform.
func BenchmarkPALDecoder(b *testing.B) {
	warmPAL(b)
	for i := 0; i < b.N; i++ {
		rep := runPAL(b).Sys.Report()
		for _, sr := range rep.PerStream {
			if sr.Overflows != 0 {
				b.Fatal("real-time violation")
			}
		}
	}
}

// BenchmarkUtilization is E8: gateway duty cycle and accelerator
// utilisation measurement.
func BenchmarkUtilization(b *testing.B) {
	warmPAL(b)
	for i := 0; i < b.N; i++ {
		rep := runPAL(b).Sys.Report()
		if rep.StreamingShare < 0.9 {
			b.Fatalf("streaming share %.2f, expected ≈0.95", rep.StreamingShare)
		}
	}
}

// BenchmarkCostModel is E6 (Fig. 11): the per-component cost table.
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cost.FormatFig11() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkSavings is E7 (Table I): the shared-vs-duplicated comparison,
// asserting the paper's 63.5% / 66.3%.
func BenchmarkSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp := cost.PaperTableI()
		if cmp.Savings.Slices != 20890 || cmp.Savings.LUTs != 33712 {
			b.Fatalf("savings = %+v", cmp.Savings)
		}
	}
}

// BenchmarkAbstractionPessimism is A2: refinement check between the
// detailed CSDF model and the single-actor SDF abstraction.
func BenchmarkAbstractionPessimism(b *testing.B) {
	s := &core.System{
		Chain:   core.Chain{Name: "a2", AccelCosts: []uint64{3}, EntryCost: 2, ExitCost: 1},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "s", Rate: big.NewRat(1000, 1), Reconfig: 50, Block: 8},
			{Name: "o", Rate: big.NewRat(1000, 1), Reconfig: 50, Block: 16},
		},
	}
	p := core.ModelParams{ProducerCost: 1, ConsumerCost: 2, InputCapacity: 16, OutputCapacity: 16, IncludeInterference: true}
	for i := 0; i < b.N; i++ {
		rep, err := s.CheckRefinement(0, p, 64)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Refines {
			b.Fatal("refinement violated")
		}
	}
}

// BenchmarkStateSwitchModes is A3: fixed-Rs hardware switching versus
// per-word software switching on the same workload.
func BenchmarkStateSwitchModes(b *testing.B) {
	run := func(b *testing.B, mode gateway.ReconfigMode) mpsoc.Report {
		fir1, _ := accel.NewFIR(make([]int32, 33), 1)
		fir2, _ := accel.NewFIR(make([]int32, 33), 1)
		cfg := mpsoc.MultiConfig{
			HopLatency: 1,
			Chains: []mpsoc.ChainSpec{{
				Name:       "a3",
				EntryCost:  15,
				ExitCost:   1,
				Mode:       mode,
				BusBase:    200,
				BusPerWord: 500,
				Accels:     []mpsoc.AccelSpec{{Name: "fir", Cost: 1}},
				Streams: []mpsoc.StreamSpec{
					{Name: "x", Block: 64, Decimation: 1, Reconfig: 4100,
						InCapacity: 256, OutCapacity: 256,
						Engines: []accel.Engine{fir1}, TotalInputs: 2048},
					{Name: "y", Block: 64, Decimation: 1, Reconfig: 4100,
						InCapacity: 256, OutCapacity: 256,
						Engines: []accel.Engine{fir2}, TotalInputs: 2048},
				},
			}},
		}
		sys, err := mpsoc.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(20_000_000)
		return sys.Report()
	}
	b.Run("hardware-Rs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := run(b, gateway.ReconfigFixed)
			if rep.ReconfigShare > 0.9 {
				b.Fatal("fixed mode unexpectedly dominated by reconfig")
			}
		}
	})
	b.Run("software-per-word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := run(b, gateway.ReconfigPerWord)
			if rep.ReconfigShare < rep.StreamingShare {
				b.Fatal("per-word mode should be reconfig-dominated")
			}
		}
	})
}

// BenchmarkSpaceCheckAblation is A1: the run with the output-space check
// disabled (the head-of-line-blocking regime).
func BenchmarkSpaceCheckAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mpsoc.MultiConfig{
			HopLatency: 1,
			Chains: []mpsoc.ChainSpec{{
				Name:              "a1",
				EntryCost:         15,
				ExitCost:          1,
				Mode:              gateway.ReconfigFixed,
				DisableSpaceCheck: true,
				Accels:            []mpsoc.AccelSpec{{Name: "a", Cost: 1}},
				Streams: []mpsoc.StreamSpec{
					{Name: "clogged", Block: 16, Decimation: 1, Reconfig: 50,
						InCapacity: 64, OutCapacity: 20,
						Engines: []accel.Engine{accel.Passthrough{}}, SinkPeriod: 5000, TotalInputs: 256},
					{Name: "victim", Block: 16, Decimation: 1, Reconfig: 50,
						InCapacity: 64, OutCapacity: 64,
						Engines: []accel.Engine{accel.Passthrough{}}, TotalInputs: 1024},
				},
			}},
		}
		sys, err := mpsoc.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(1_000_000)
	}
}
