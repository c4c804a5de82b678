// Multiradio demonstrates the paper's second sharing scenario (§I):
// accelerators shared between data streams of DIFFERENT applications
// executing simultaneously on the MPSoC. Two independent software-defined
// radios — an FM broadcast receiver and a narrowband telemetry receiver at
// a different carrier and rate — multiplex their channelisation (mixer +
// LPF/down-sampler) over one CORDIC and one FIR accelerator.
//
// The round-robin entry gateway isolates the radios temporally: each
// stream's worst-case turnaround stays below its γ̂ bound regardless of
// what the other application does, which is the property that makes
// cross-application sharing safe under real-time constraints.
package main

import (
	"fmt"
	"log"
	"math"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/dsp"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
)

func main() {
	const clock = 100_000_000.0

	// Radio A: wideband FM at 1.4112 MS/s, carrier +300 kHz, ÷8 to 176.4 kS/s.
	// Radio B: telemetry at 352.8 kS/s, carrier -80 kHz, ÷8 to 44.1 kS/s.
	// Untyped constants: exact in the model's int64/big.Rat contexts and in
	// the float DSP contexts alike (no float-derived value feeds a bound).
	const rateA = 44100.0 * 32
	const rateB = 44100.0 * 8

	// One CORDIC + FIR+D chain; the model reads its timing from the chain.
	chain := mpsoc.ChainSpec{
		Name:      "multiradio",
		EntryCost: 15,
		ExitCost:  1,
		Mode:      gateway.ReconfigFixed,
		Accels: []mpsoc.AccelSpec{
			{Name: "cordic", Cost: 1, NICapacity: 2},
			{Name: "fir+d", Cost: 1, NICapacity: 2},
		},
	}
	model := &core.System{
		Chain:   chain.Timing(),
		ClockHz: int64(clock),
		Streams: []core.Stream{
			{Name: "radioA", Rate: big.NewRat(int64(rateA), 1), Reconfig: 4100},
			{Name: "radioB", Rate: big.NewRat(int64(rateB), 1), Reconfig: 4100},
		},
	}
	res, err := model.ComputeBlockSizesRounded([]int64{8, 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("two applications share one CORDIC + FIR chain:")
	for i, st := range model.Streams {
		gamma, err := model.GammaHat(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s rate %.4g S/s, block η = %d, γ̂ = %d cycles (%.0f µs)\n",
			st.Name, float64(st.Rate.Num().Int64()), res.Blocks[i], gamma, float64(gamma)/100)
	}
	if err := model.VerifyThroughput(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  Eq. 5 verified for both applications")

	// Build the hardware. Each radio receives its own FM tone.
	lpf, err := dsp.DesignLowPass(33, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	coef := dsp.QuantizeQ15(lpf)
	firA, _ := accel.NewFIR(coef, 8)
	firB, _ := accel.NewFIR(coef, 8)

	modA := dsp.NewModulator(300_000, 30_000, rateA, 1<<20)
	modB := dsp.NewModulator(-80_000, 10_000, rateB, 1<<20)
	toneA, toneB := 2000.0, 700.0

	mkSource := func(m *dsp.Modulator, tone, rate float64) func(uint64) sim.Word {
		return func(n uint64) sim.Word {
			audio := int32(15000 * math.Sin(2*math.Pi*tone*float64(n)/rate))
			i, q := m.Modulate(audio)
			return sim.PackIQ(i, q)
		}
	}

	const seconds = 0.02
	// The streams carry float-derived source settings, so they go on a copy
	// of the chain: accellint's floatflow would otherwise taint the model
	// read from chain and flag its γ̂ comparison below.
	hw := chain
	hw.Streams = []mpsoc.StreamSpec{
		{
			Name: "radioA", Block: res.Blocks[0], Decimation: 8, Reconfig: 4100,
			InCapacity: int(3 * res.Blocks[0]), OutCapacity: int(res.Blocks[0]),
			Engines:         []accel.Engine{accel.NewMixer(-300_000, rateA), firA},
			SourcePeriodNum: uint64(clock), SourcePeriodDen: uint64(rateA),
			Source:         mkSource(modA, toneA, rateA),
			TotalInputs:    uint64(seconds * rateA),
			CollectOutputs: true,
		},
		{
			Name: "radioB", Block: res.Blocks[1], Decimation: 8, Reconfig: 4100,
			InCapacity: int(3 * res.Blocks[1]), OutCapacity: int(res.Blocks[1]),
			Engines:         []accel.Engine{accel.NewMixer(80_000, rateB), firB},
			SourcePeriodNum: uint64(clock), SourcePeriodDen: uint64(rateB),
			Source:         mkSource(modB, toneB, rateB),
			TotalInputs:    uint64(seconds * rateB),
			CollectOutputs: true,
		},
	}
	sys, err := mpsoc.Build(mpsoc.MultiConfig{HopLatency: 1, Chains: []mpsoc.ChainSpec{hw}})
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(sim.Time(seconds*clock) * 2)

	rep := sys.Report()
	fmt.Println("\nsimulated hardware:")
	violated := false
	for i, sr := range rep.PerStream {
		gamma, err := model.GammaHat(i)
		if err != nil {
			log.Fatal(err)
		}
		status := "isolated (within γ̂)"
		if sr.MaxTurnaround > gamma {
			status = "INTERFERENCE BOUND VIOLATED"
			violated = true
		}
		fmt.Printf("  %-7s %3d blocks, %6d samples out, %d drops, worst turnaround %d vs γ̂ %d — %s\n",
			sr.Name, sr.Blocks, sr.SamplesOut, sr.Overflows, sr.MaxTurnaround, gamma, status)
	}

	// The channelised outputs should still carry each radio's FM energy
	// (the baseband after mixing + LPF is the FM signal around DC).
	for i, name := range []string{"radioA", "radioB"} {
		outs := sys.Strs[i].Outputs
		if len(outs) == 0 {
			log.Fatalf("%s produced no output", name)
		}
		var is []int32
		for _, w := range outs {
			v, _ := sim.UnpackIQ(w)
			is = append(is, v)
		}
		fmt.Printf("  %-7s channelised output RMS %.0f over %d samples\n", name, pal.RMS(is), len(is))
	}
	if violated {
		log.Fatal("a stream's worst turnaround exceeded its γ̂")
	}
	fmt.Println("\nsharing one accelerator set between two concurrent applications kept both")
	fmt.Println("within their real-time bounds — the cross-application case of §I.")
}
