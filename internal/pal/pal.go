// Package pal implements the paper's demonstrator (§VI-A): real-time
// decoding of PAL television stereo audio on the simulated MPSoC, with one
// CORDIC accelerator and one FIR-LPF+down-sampler accelerator shared by
// four streams through a single entry/exit-gateway pair.
//
// The Epiq FMC-1RX radio front-end is replaced by a synthetic baseband
// generator (see DESIGN.md): two FM carriers at distinct offsets — FM1
// carrying the (L+R)/2 mix and FM2 carrying R, mirroring PAL's A2 stereo
// arrangement — summed into one complex stream at 64×44.1 kHz.
//
// Decoding per channel takes two passes over the SAME accelerator chain:
//
//	stage 1: CORDIC as mixer (carrier → DC)  + FIR LPF ↓8
//	stage 2: CORDIC as FM discriminator      + FIR LPF ↓8 → 44.1 kHz audio
//
// which is why the chain is shared by four streams (two channels × two
// stages). A software task reconstructs L = 2·(L+R)/2 − R.
package pal

import (
	"fmt"
	"math"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/dsp"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// Params describes the synthetic PAL scenario.
type Params struct {
	// AudioRate is the output rate (44.1 kHz in the paper).
	AudioRate float64
	// Decimation per chain stage (8 in the paper, giving a front-end rate
	// of AudioRate·Decimation²).
	Decimation int
	// Carrier1/Carrier2 are the FM sound carrier offsets in Hz within the
	// synthetic baseband (the paper's 6.0/6.242 MHz offsets scaled into our
	// Nyquist range).
	Carrier1, Carrier2 float64
	// Deviation is the FM deviation for full-scale audio, in Hz.
	Deviation float64
	// ToneL/ToneR are the test tones carried by the left and right audio
	// channels, in Hz.
	ToneL, ToneR float64
	// ToneAmp is the tone amplitude in 16-bit full scale.
	ToneAmp int32
	// ClockHz is the platform clock.
	ClockHz float64
	// Blocks: ηs per stream, order [ch1.s1, ch2.s1, ch1.s2, ch2.s2]. Each
	// must be a multiple of Decimation.
	Blocks [4]int64
	// Reconfig is Rs in cycles (4100 in the paper).
	Reconfig sim.Time
	// EntryCost/ExitCost are ε/δ in cycles (15 and 1 in the paper).
	EntryCost, ExitCost sim.Time
	// FilterTaps is the FIR length (33 in the paper).
	FilterTaps int
	// Audio seconds to synthesise (sources stop after the corresponding
	// sample count; 0 = endless). Build rejects a negative or non-finite
	// value.
	Seconds float64
	// RecordActivity keeps the gateway's per-block activity trace for
	// rotation Gantt rendering.
	RecordActivity bool
}

// DefaultParams mirrors the paper's numbers with carriers scaled into the
// synthetic baseband's Nyquist range.
func DefaultParams() Params {
	return Params{
		AudioRate:  44100,
		Decimation: 8,
		Carrier1:   400_000,
		Carrier2:   -400_000,
		Deviation:  40_000,
		ToneL:      1000,
		ToneR:      2500,
		ToneAmp:    18000,
		ClockHz:    100e6,
		// Minimum feasible blocks at multiples of the decimation factor,
		// from core.ComputeBlockSizesRounded on the paper's parameters.
		Blocks:     [4]int64{9848, 9848, 1232, 1232},
		Reconfig:   4100,
		EntryCost:  15,
		ExitCost:   1,
		FilterTaps: 33,
		Seconds:    0.05,
	}
}

// FrontendRate returns the synthetic baseband sample rate.
func (p *Params) FrontendRate() float64 {
	return p.AudioRate * float64(p.Decimation) * float64(p.Decimation)
}

// IntermediateRate returns the rate between the two chain stages.
func (p *Params) IntermediateRate() float64 {
	return p.AudioRate * float64(p.Decimation)
}

// Frontend is the synthetic PAL baseband generator: tone L and tone R are
// FM-modulated onto the two sound carriers and summed.
type Frontend struct {
	p    Params
	mod1 *dsp.Modulator
	mod2 *dsp.Modulator
}

// NewFrontend builds the generator.
func NewFrontend(p Params) *Frontend {
	fs := p.FrontendRate()
	return &Frontend{
		p:    p,
		mod1: dsp.NewModulator(p.Carrier1, p.Deviation, fs, 1<<20),
		mod2: dsp.NewModulator(p.Carrier2, p.Deviation, fs, 1<<20),
	}
}

// Audio returns the (L, R) test-tone samples for output-sample index n at
// the audio rate.
func (f *Frontend) Audio(n uint64, rate float64) (l, r int32) {
	t := float64(n) / rate
	l = int32(float64(f.p.ToneAmp) * math.Sin(2*math.Pi*f.p.ToneL*t))
	r = int32(float64(f.p.ToneAmp) * math.Sin(2*math.Pi*f.p.ToneR*t))
	return l, r
}

// Sample produces baseband sample n (at the front-end rate).
func (f *Frontend) Sample(n uint64) sim.Word {
	l, r := f.Audio(n, f.p.FrontendRate())
	mix := (int32(l) + int32(r)) / 2 // FM1 carries (L+R)/2
	i1, q1 := f.mod1.Modulate(mix)
	i2, q2 := f.mod2.Modulate(r) // FM2 carries R
	return sim.PackIQ(i1+i2, q1+q2)
}

// Decoder is the assembled application.
type Decoder struct {
	P      Params
	Sys    *mpsoc.System
	fe     *Frontend
	fe2    *Frontend // second front-end instance for the second stage-1 stream
	L, R   []int32   // reconstructed audio
	stereo struct {
		lr []int32 // (L+R)/2 path output backlog
		r  []int32 // R path output backlog
	}
}

// streamNames in spec order.
var streamNames = [4]string{"ch1.stage1", "ch2.stage1", "ch1.stage2", "ch2.stage2"}

// Build assembles the decoder on the simulated platform.
func Build(p Params) (*Decoder, error) {
	if p.Seconds < 0 || math.IsNaN(p.Seconds) || math.IsInf(p.Seconds, 0) {
		return nil, fmt.Errorf("pal: seconds must be finite and non-negative, got %v", p.Seconds)
	}
	for i, b := range p.Blocks {
		if b <= 0 || b%int64(p.Decimation) != 0 {
			return nil, fmt.Errorf("pal: block[%d] = %d must be a positive multiple of %d", i, b, p.Decimation)
		}
	}
	fsIn := p.FrontendRate()

	// Stage-1 LPF isolates the selected carrier before ↓8; stage-2 LPF
	// bounds the audio band before the final ↓8. Same prototype design at
	// both rates (cutoffs are normalised).
	lpf, err := dsp.DesignLowPass(p.FilterTaps, 0.5/float64(p.Decimation)*0.8)
	if err != nil {
		return nil, err
	}
	q1 := dsp.QuantizeQ15(lpf)
	q2 := q1

	d := &Decoder{P: p}
	d.fe = NewFrontend(p)
	d.fe2 = NewFrontend(p)

	// Buffer capacities from the analysis model (core.InputBufferBound /
	// OutputBufferBound), not guesswork: with these the periodic front-end
	// never overflows (validated by the zero-drop assertion in tests).
	inCaps, outCaps, err := analysisBufferBounds(p)
	if err != nil {
		return nil, err
	}

	totalIn := uint64(0)
	if p.Seconds > 0 {
		totalIn = uint64(p.Seconds * fsIn)
	}

	num := uint64(p.ClockHz)
	denIn := uint64(fsIn)

	mkStage1 := func(idx int, name string, carrier float64, fe *Frontend, block int64) mpsoc.StreamSpec {
		return mpsoc.StreamSpec{
			Name:            name,
			Block:           block,
			Decimation:      int64(p.Decimation),
			Reconfig:        p.Reconfig,
			InCapacity:      inCaps[idx],
			OutCapacity:     outCaps[idx],
			Engines:         []accel.Engine{accel.NewMixer(-carrier, fsIn), mustFIR(q1, p.Decimation)},
			SourcePeriodNum: num,
			SourcePeriodDen: denIn,
			Source:          fe.Sample,
			TotalInputs:     totalIn,
			ExternalSink:    true, // forwarder feeds stage 2
		}
	}
	mkStage2 := func(idx int, name string, block int64) mpsoc.StreamSpec {
		return mpsoc.StreamSpec{
			Name:           name,
			Block:          block,
			Decimation:     int64(p.Decimation),
			Reconfig:       p.Reconfig,
			InCapacity:     inCaps[idx],
			OutCapacity:    outCaps[idx],
			Engines:        []accel.Engine{accel.NewDiscriminator(), nil},
			ExternalSource: true,
			ExternalSink:   true, // the stereo-reconstruction task consumes
		}
	}
	specs := []mpsoc.StreamSpec{
		mkStage1(0, streamNames[0], p.Carrier1, d.fe, p.Blocks[0]),
		mkStage1(1, streamNames[1], p.Carrier2, d.fe2, p.Blocks[1]),
		mkStage2(2, streamNames[2], p.Blocks[2]),
		mkStage2(3, streamNames[3], p.Blocks[3]),
	}
	specs[2].Engines[1] = mustFIR(q2, p.Decimation)
	specs[3].Engines[1] = mustFIR(q2, p.Decimation)

	chain := chainSpec(p)
	chain.Streams = specs
	sys, err := mpsoc.Build(mpsoc.MultiConfig{
		HopLatency:     1,
		RecordActivity: p.RecordActivity,
		Chains:         []mpsoc.ChainSpec{chain},
	})
	if err != nil {
		return nil, err
	}
	d.Sys = sys

	// Forwarders: stage-1 outputs feed stage-2 inputs (a software task on a
	// processor tile in the real system).
	d.forward(0, 2)
	d.forward(1, 3)
	// Stereo reconstruction from the two stage-2 outputs.
	d.reconstruct()
	return d, nil
}

// analysisBufferBounds derives every stream's FIFO capacities from the
// temporal model: input = η + ⌈μ·γ̂⌉ (absorb one service interval), output
// = 2 output blocks. The forwarder-fed stage-2 inputs get the same bound —
// the forwarder delivers at the stage-1 output rate, which equals the
// stage-2 input rate.
func analysisBufferBounds(p Params) (in []int, out []int, err error) {
	sys := AnalysisModel(p)
	for i := range sys.Streams {
		ib, err := sys.InputBufferBound(i)
		if err != nil {
			return nil, nil, err
		}
		ob, err := sys.OutputBufferBound(i, int64(p.Decimation))
		if err != nil {
			return nil, nil, err
		}
		in = append(in, int(ib))
		out = append(out, int(ob))
	}
	return in, out, nil
}

// chainSpec is the decoder's platform chain without its streams: one
// gateway pair with the CORDIC and the FIR+D accelerators.
func chainSpec(p Params) mpsoc.ChainSpec {
	return mpsoc.ChainSpec{
		Name:      "pal",
		EntryCost: p.EntryCost,
		ExitCost:  p.ExitCost,
		Mode:      gateway.ReconfigFixed,
		Accels: []mpsoc.AccelSpec{
			{Name: "cordic", Cost: 1, NICapacity: 2},
			{Name: "fir+d", Cost: 1, NICapacity: 2},
		},
	}
}

// AnalysisModel returns the paper's §VI-A temporal model for the given
// parameters: the four streams sharing the CORDIC + FIR chain.
func AnalysisModel(p Params) *core.System {
	fsIn := int64(p.FrontendRate())
	fsMid := int64(p.IntermediateRate())
	mk := func(name string, rate int64, block int64) core.Stream {
		return core.Stream{Name: name, Rate: big.NewRat(rate, 1), Reconfig: uint64(p.Reconfig), Block: block}
	}
	return &core.System{
		Chain:   chainSpec(p).Timing(),
		ClockHz: int64(p.ClockHz),
		Streams: []core.Stream{
			mk(streamNames[0], fsIn, p.Blocks[0]),
			mk(streamNames[1], fsIn, p.Blocks[1]),
			mk(streamNames[2], fsMid, p.Blocks[2]),
			mk(streamNames[3], fsMid, p.Blocks[3]),
		},
	}
}

func mustFIR(coef []int32, decimate int) accel.Engine {
	e, err := accel.NewFIR(coef, decimate)
	if err != nil {
		panic(err)
	}
	return e
}

// forward pumps every word from stream src's output FIFO into stream dst's
// input FIFO.
func (d *Decoder) forward(src, dst int) {
	out := d.Sys.Strs[src].Out
	in := d.Sys.Strs[dst].In
	k := d.Sys.K
	var held sim.Word
	holding := false
	var retry func() // w.Wake, bound once for the full-FIFO retries
	w := sim.NewWaker(k, func() {
		for {
			if holding {
				if !in.TryWrite(held) {
					k.Schedule(8, retry)
					return
				}
				holding = false
			}
			v, ok := out.TryRead()
			if !ok {
				return
			}
			if !in.TryWrite(v) {
				held, holding = v, true
				k.Schedule(8, retry)
				return
			}
		}
	})
	retry = w.Wake
	out.SubscribeData(w)
	in.SubscribeSpace(w)
}

// reconstruct pairs the two stage-2 audio streams into L and R, the
// paper's software task on a processor tile.
func (d *Decoder) reconstruct() {
	k := d.Sys.K
	s1 := d.Sys.Strs[2].Out // (L+R)/2 path
	s2 := d.Sys.Strs[3].Out // R path
	var w *sim.Waker
	w = sim.NewWaker(k, func() {
		for {
			// Pull whatever is available into the backlog, then pair.
			moved := false
			if v, ok := s1.TryRead(); ok {
				i, _ := sim.UnpackIQ(v)
				d.stereo.lr = append(d.stereo.lr, i)
				moved = true
			}
			if v, ok := s2.TryRead(); ok {
				i, _ := sim.UnpackIQ(v)
				d.stereo.r = append(d.stereo.r, i)
				moved = true
			}
			// Paired entries leave the backlogs in place, so both keep
			// their backing arrays.
			n := min(len(d.stereo.lr), len(d.stereo.r))
			for j := 0; j < n; j++ {
				lr, r := d.stereo.lr[j], d.stereo.r[j]
				d.L = append(d.L, 2*lr-r)
				d.R = append(d.R, r)
			}
			d.stereo.lr = d.stereo.lr[:copy(d.stereo.lr, d.stereo.lr[n:])]
			d.stereo.r = d.stereo.r[:copy(d.stereo.r, d.stereo.r[n:])]
			if !moved {
				return
			}
		}
	})
	s1.SubscribeData(w)
	s2.SubscribeData(w)
}

// Run advances the simulation.
func (d *Decoder) Run(horizon sim.Time) {
	d.Sys.Run(horizon)
}

// GoertzelPower measures the normalised power of a tone at freq Hz in the
// signal sampled at rate Hz — the functional test oracle (see dsp.Goertzel).
func GoertzelPower(x []int32, freq, rate float64) float64 {
	return dsp.Goertzel(x, freq, rate)
}

// RMS returns the root-mean-square of the samples.
func RMS(x []int32) float64 {
	if len(x) == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		acc += float64(v) * float64(v)
	}
	return math.Sqrt(acc / float64(len(x)))
}
