// Package accel models the paper's accelerator tiles: a coarsely
// programmable processing engine behind a network interface with
// credit-based flow control, plus the configuration bus used to save and
// restore per-stream state on context switches.
//
// An accelerator knows nothing about the rest of the system: it consumes an
// incoming word stream from its NI and produces an outgoing word stream,
// stalling on empty input or missing downstream credits (paper §IV-B).
package accel

import (
	"fmt"

	"accelshare/internal/dsp"
	"accelshare/internal/sim"
)

// Engine is the functional core of an accelerator. One Engine instance
// holds the state of one stream on one accelerator; context switches save
// the active instance and load another (through the configuration bus,
// which charges the cycles).
type Engine interface {
	// Process consumes one input word and appends 0..n produced words to
	// out (down-sampling engines produce less than one word per input).
	Process(w sim.Word, out []sim.Word) []sim.Word
	// SaveState appends the mutable per-stream state to dst and returns the
	// extended slice, so callers can refill one buffer per slot
	// (SaveState(buf[:0])) instead of allocating a snapshot per swap.
	SaveState(dst []uint64) []uint64
	// LoadState restores a snapshot produced by SaveState. It copies what it
	// needs: the caller may overwrite the slice afterwards.
	LoadState([]uint64) error
	// StateWords is the state footprint in 64-bit words, the amount of
	// traffic a context switch moves over the configuration bus.
	StateWords() int
}

// Passthrough forwards words unchanged — the identity engine used in tests
// and as the exit-gateway's DMA core.
type Passthrough struct{}

// Process copies the input to the output.
func (Passthrough) Process(w sim.Word, out []sim.Word) []sim.Word { return append(out, w) }

// SaveState appends nothing: the engine is stateless.
func (Passthrough) SaveState(dst []uint64) []uint64 { return dst }

// LoadState accepts only empty snapshots.
func (Passthrough) LoadState(s []uint64) error {
	if len(s) != 0 {
		return fmt.Errorf("accel: passthrough has no state")
	}
	return nil
}

// StateWords is zero.
func (Passthrough) StateWords() int { return 0 }

// Gain multiplies both components by a constant shift — a trivial stateful
// engine for arbitration tests.
type Gain struct {
	Shift uint8
	Count uint64
}

// Process scales the sample.
func (g *Gain) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	g.Count++
	return append(out, sim.PackIQ(i<<g.Shift, q<<g.Shift))
}

// SaveState stores the sample counter.
func (g *Gain) SaveState(dst []uint64) []uint64 { return append(dst, g.Count) }

// LoadState restores the counter.
func (g *Gain) LoadState(s []uint64) error {
	if len(s) != 1 {
		return fmt.Errorf("accel: gain state must be 1 word")
	}
	g.Count = s[0]
	return nil
}

// StateWords is one.
func (g *Gain) StateWords() int { return 1 }

// Mixer is the CORDIC channel-mixer engine: it rotates each complex sample
// by a programmable NCO, translating the stream in frequency (paper §VI-A's
// first CORDIC use).
type Mixer struct {
	M dsp.Mixer
}

// NewMixer builds a mixer engine shifting by freqHz at sampleRateHz.
func NewMixer(freqHz, sampleRateHz float64) *Mixer {
	return &Mixer{M: *dsp.NewMixer(freqHz, sampleRateHz)}
}

// Process rotates one sample.
func (m *Mixer) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	oi, oq := m.M.Mix(i, q)
	return append(out, sim.PackIQ(oi, oq))
}

// SaveState stores the NCO phase.
func (m *Mixer) SaveState(dst []uint64) []uint64 {
	return append(dst, uint64(m.M.Osc.Phase))
}

// LoadState restores the NCO phase.
func (m *Mixer) LoadState(s []uint64) error {
	if len(s) != 1 {
		return fmt.Errorf("accel: mixer state must be 1 word")
	}
	m.M.Osc.Phase = dsp.Phase(s[0])
	return nil
}

// StateWords is one.
func (m *Mixer) StateWords() int { return 1 }

// Discriminator is the FM-demodulating CORDIC engine (paper §VI-A's second
// CORDIC use): each complex input yields one real audio sample.
type Discriminator struct {
	D dsp.Discriminator
}

// NewDiscriminator builds the FM discriminator engine.
func NewDiscriminator() *Discriminator {
	return &Discriminator{D: *dsp.NewDiscriminator()}
}

// Process demodulates one sample; the audio value travels in the I half.
func (d *Discriminator) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	return append(out, sim.PackIQ(d.D.Demod(i, q), 0))
}

// SaveState stores the previous phase and validity flag.
func (d *Discriminator) SaveState(dst []uint64) []uint64 {
	var flag uint64
	if d.D.HavePrev() {
		flag = 1
	}
	return append(dst, uint64(d.D.Prev())<<1|flag)
}

// LoadState restores the phase history.
func (d *Discriminator) LoadState(s []uint64) error {
	if len(s) != 1 {
		return fmt.Errorf("accel: discriminator state must be 1 word")
	}
	d.D.SetHistory(dsp.Phase(s[0]>>1), s[0]&1 == 1)
	return nil
}

// StateWords is one.
func (d *Discriminator) StateWords() int { return 1 }

// FIR is the "LPF + down-sampler" engine: a 33-tap (by default) complex
// low-pass filter with integrated decimation.
type FIR struct {
	F *dsp.FIR
}

// NewFIR wraps a designed filter.
func NewFIR(coef []int32, decimate int) (*FIR, error) {
	f, err := dsp.NewFIR(coef, decimate)
	if err != nil {
		return nil, err
	}
	return &FIR{F: f}, nil
}

// Process filters one sample, emitting on decimation instants.
func (f *FIR) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	if oi, oq, ok := f.F.Push(i, q); ok {
		out = append(out, sim.PackIQ(oi, oq))
	}
	return out
}

// SaveState delegates to the filter.
func (f *FIR) SaveState(dst []uint64) []uint64 { return f.F.SaveState(dst) }

// LoadState delegates to the filter.
func (f *FIR) LoadState(s []uint64) error { return f.F.LoadState(s) }

// StateWords delegates to the filter.
func (f *FIR) StateWords() int { return f.F.StateWords() }

// CIC is the cascaded integrator-comb decimator engine — the multiplier-
// free down-converter that typically sits first in an SDR chain. It shows
// the accelerator framework hosting a second decimating engine type next
// to the FIR.
type CIC struct {
	C *dsp.CIC
}

// NewCIC builds an N-stage decimate-by-R CIC engine.
func NewCIC(stages, decimate int) (*CIC, error) {
	c, err := dsp.NewCIC(stages, decimate)
	if err != nil {
		return nil, err
	}
	return &CIC{C: c}, nil
}

// Process filters one sample, emitting on decimation instants.
func (c *CIC) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	if oi, oq, ok := c.C.Push(i, q); ok {
		out = append(out, sim.PackIQ(oi, oq))
	}
	return out
}

// SaveState delegates to the filter.
func (c *CIC) SaveState(dst []uint64) []uint64 { return c.C.SaveState(dst) }

// LoadState delegates to the filter.
func (c *CIC) LoadState(s []uint64) error { return c.C.LoadState(s) }

// StateWords delegates to the filter.
func (c *CIC) StateWords() int { return c.C.StateWords() }
