package enginetest

import (
	"fmt"
	"math"
	"slices"

	"accelshare/internal/sim"
)

// CIC is a cascaded integrator-comb decimator engine — the standard,
// multiplier-free down-converter front-end of SDR systems and a second
// decimating engine type next to accel.FIR for the tests of decimating
// chains. N integrator stages run at the input rate, the decimator keeps
// every R-th sample, and N comb stages (differential delay M = 1) run at
// the output rate.
//
// DC gain is (R·M)^N; Push right-shifts the output by GainShift to
// renormalise. For equal-length moving averages, a 1-stage CIC is exactly
// a boxcar sum of R samples, which the tests exploit as an oracle.
type CIC struct {
	Stages   int
	Decimate int

	integr []int64 // integrator state per stage (I and Q interleaved pairs)
	integQ []int64
	combI  []int64
	combQ  []int64
	phase  int
	// GainShift renormalises the (R)^N DC gain.
	GainShift uint
}

// NewCIC builds an N-stage decimate-by-R CIC with automatic gain
// renormalisation (shift by N·log2(R) when R is a power of two, else the
// floor of that).
func NewCIC(stages, decimate int) (*CIC, error) {
	if stages < 1 || stages > 8 {
		return nil, fmt.Errorf("enginetest: CIC stages must be in 1..8, got %d", stages)
	}
	if decimate < 1 {
		return nil, fmt.Errorf("enginetest: CIC decimation must be >= 1, got %d", decimate)
	}
	// Renormalisation: the DC gain is decimate^stages; shift by
	// stages·⌈log2(decimate)⌉ (exact for power-of-two factors).
	bits := 0
	for v := 1; v < decimate; v <<= 1 {
		bits++
	}
	shift := uint(bits * stages)
	return &CIC{
		Stages:    stages,
		Decimate:  decimate,
		integr:    make([]int64, stages),
		integQ:    make([]int64, stages),
		combI:     make([]int64, stages),
		combQ:     make([]int64, stages),
		GainShift: shift,
	}, nil
}

// Push feeds one complex sample; ok is true on decimated output instants.
// Integrator arithmetic wraps modulo 2^64 by design (the classic CIC
// property that makes overflow harmless as long as the word is wide enough
// for the gain).
func (c *CIC) Push(i, q int32) (oi, oq int32, ok bool) {
	ai, aq := int64(i), int64(q)
	for s := 0; s < c.Stages; s++ {
		c.integr[s] += ai
		c.integQ[s] += aq
		ai, aq = c.integr[s], c.integQ[s]
	}
	c.phase++
	if c.phase < c.Decimate {
		return 0, 0, false
	}
	c.phase = 0
	for s := 0; s < c.Stages; s++ {
		di := ai - c.combI[s]
		dq := aq - c.combQ[s]
		c.combI[s], c.combQ[s] = ai, aq
		ai, aq = di, dq
	}
	return clamp32(ai >> c.GainShift), clamp32(aq >> c.GainShift), true
}

func clamp32(v int64) int32 {
	return int32(max(math.MinInt32, min(math.MaxInt32, v)))
}

// Process filters one sample, emitting on decimation instants.
func (c *CIC) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	if oi, oq, ok := c.Push(i, q); ok {
		out = append(out, sim.PackIQ(oi, oq))
	}
	return out
}

// Reset clears all state.
func (c *CIC) Reset() {
	for s := 0; s < c.Stages; s++ {
		c.integr[s], c.integQ[s] = 0, 0
		c.combI[s], c.combQ[s] = 0, 0
	}
	c.phase = 0
}

// StateWords reports the context-switch footprint.
func (c *CIC) StateWords() int { return 4*c.Stages + 1 }

// SaveState appends the mutable state (StateWords words) to dst.
func (c *CIC) SaveState(dst []uint64) []uint64 {
	dst = slices.Grow(dst, c.StateWords())
	for s := 0; s < c.Stages; s++ {
		dst = append(dst, uint64(c.integr[s]), uint64(c.integQ[s]), uint64(c.combI[s]), uint64(c.combQ[s]))
	}
	return append(dst, uint64(c.phase))
}

// LoadState restores a SaveState snapshot.
func (c *CIC) LoadState(w []uint64) error {
	if len(w) != c.StateWords() {
		return fmt.Errorf("enginetest: CIC state size %d, want %d", len(w), c.StateWords())
	}
	idx := 0
	for s := 0; s < c.Stages; s++ {
		c.integr[s] = int64(w[idx])
		c.integQ[s] = int64(w[idx+1])
		c.combI[s] = int64(w[idx+2])
		c.combQ[s] = int64(w[idx+3])
		idx += 4
	}
	c.phase = int(w[idx])
	if c.phase < 0 || c.phase >= c.Decimate {
		return fmt.Errorf("enginetest: corrupt CIC phase")
	}
	return nil
}
