package dsp

import (
	"fmt"
	"math"
	"slices"
)

// DesignLowPass designs a linear-phase low-pass FIR by the windowed-sinc
// method with a Hamming window. cutoff is the -6 dB corner as a fraction of
// the sample rate (0 < cutoff < 0.5). The paper's demonstrator uses a
// 33-tap complex FIR with built-in down-sampler.
func DesignLowPass(taps int, cutoff float64) ([]float64, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: taps must be odd and >= 3, got %d", taps)
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: cutoff must be in (0, 0.5), got %v", cutoff)
	}
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	var sum float64
	for n := 0; n < taps; n++ {
		x := float64(n) - mid
		var s float64
		if x == 0 {
			s = 2 * cutoff
		} else {
			s = math.Sin(2*math.Pi*cutoff*x) / (math.Pi * x)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(n)/float64(taps-1))
		h[n] = s * w
		sum += h[n]
	}
	// Normalise to unity DC gain.
	for n := range h {
		h[n] /= sum
	}
	return h, nil
}

// QuantizeQ15 converts float coefficients to Q15 fixed point.
func QuantizeQ15(h []float64) []int32 {
	q := make([]int32, len(h))
	for i, v := range h {
		x := math.Round(v * 32768)
		if x > 32767 {
			x = 32767
		}
		if x < -32768 {
			x = -32768
		}
		q[i] = int32(x)
	}
	return q
}

// FIR is a streaming complex filter with real Q15 coefficients and an
// integrated down-sampler: exactly the accelerator the paper calls
// "LPF + down-sampler". Push consumes one complex sample and returns one
// output sample every Decimate inputs.
type FIR struct {
	Coef     []int32 // Q15
	Decimate int

	di, dq []int32 // delay lines
	pos    int
	count  int
}

// NewFIR returns a streaming filter. decimate >= 1.
func NewFIR(coef []int32, decimate int) (*FIR, error) {
	if len(coef) == 0 {
		return nil, fmt.Errorf("dsp: FIR needs coefficients")
	}
	if decimate < 1 {
		return nil, fmt.Errorf("dsp: decimation factor must be >= 1, got %d", decimate)
	}
	return &FIR{
		Coef:     append([]int32(nil), coef...),
		Decimate: decimate,
		di:       make([]int32, len(coef)),
		dq:       make([]int32, len(coef)),
	}, nil
}

// Push feeds one sample; ok is true on the decimated output instants.
func (f *FIR) Push(i, q int32) (oi, oq int32, ok bool) {
	f.di[f.pos] = i
	f.dq[f.pos] = q
	f.pos = (f.pos + 1) % len(f.Coef)
	f.count++
	if f.count < f.Decimate {
		return 0, 0, false
	}
	f.count = 0
	var accI, accQ int64
	idx := f.pos // oldest sample
	for k := len(f.Coef) - 1; k >= 0; k-- {
		c := int64(f.Coef[k])
		accI += c * int64(f.di[idx])
		accQ += c * int64(f.dq[idx])
		idx++
		if idx == len(f.Coef) {
			idx = 0
		}
	}
	return clamp32(accI >> 15), clamp32(accQ >> 15), true
}

// Reset clears the delay line and decimation counter.
func (f *FIR) Reset() {
	for i := range f.di {
		f.di[i], f.dq[i] = 0, 0
	}
	f.pos, f.count = 0, 0
}

// StateWords returns the filter state packed as 64-bit words (delay lines
// plus position/counter), the quantity the configuration bus must move on a
// context switch. The paper's Rs covers exactly this save/restore.
func (f *FIR) StateWords() int {
	return len(f.Coef) + 1 // packed I/Q pairs + control word
}

// SaveState appends the mutable state (StateWords words) to dst.
func (f *FIR) SaveState(dst []uint64) []uint64 {
	dst = slices.Grow(dst, f.StateWords())
	for k := range f.di {
		dst = append(dst, uint64(uint32(f.di[k]))<<32|uint64(uint32(f.dq[k])))
	}
	return append(dst, uint64(uint32(f.pos))<<32|uint64(uint32(f.count)))
}

// LoadState restores a SaveState snapshot.
func (f *FIR) LoadState(w []uint64) error {
	if len(w) != f.StateWords() {
		return fmt.Errorf("dsp: FIR state size %d, want %d", len(w), f.StateWords())
	}
	for k := range f.di {
		f.di[k] = int32(uint32(w[k] >> 32))
		f.dq[k] = int32(uint32(w[k]))
	}
	ctl := w[len(w)-1]
	f.pos = int(uint32(ctl >> 32))
	f.count = int(uint32(ctl))
	if f.pos < 0 || f.pos >= len(f.Coef) || f.count < 0 || f.count >= f.Decimate {
		return fmt.Errorf("dsp: corrupt FIR control word")
	}
	return nil
}
