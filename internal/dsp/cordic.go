// Package dsp provides the signal-processing primitives the paper's
// accelerators implement: fixed-point CORDIC (rotation and vectoring
// modes), windowed-sinc FIR low-pass design with integrated down-sampling,
// an NCO, and FM modulation/demodulation. Everything is deterministic
// integer arithmetic so the simulated accelerators are bit-exact across
// runs; float helpers exist only for filter design and test oracles.
package dsp

import "math"

// CORDIC iteration count. 20 iterations give ~20 bits of angular precision,
// comfortably beyond the 16-bit audio path of the PAL demonstrator.
const cordicIters = 20

// Phase is a fixed-point angle where the full circle is 2^32: the natural
// wrap-around representation for NCOs and FM discriminators.
type Phase = uint32

// atanTable[k] = atan(2^-k) scaled so the full circle is 2^32.
var atanTable [cordicIters]int64

// cordicGainInv is 1/K = Π 1/sqrt(1+2^-2k) ≈ 0.607252935 in Q30.
var cordicGainInv int64

func init() {
	for k := 0; k < cordicIters; k++ {
		atanTable[k] = int64(math.Round(math.Atan(math.Pow(2, -float64(k))) / (2 * math.Pi) * 4294967296.0))
	}
	gain := 1.0
	for k := 0; k < cordicIters; k++ {
		gain *= math.Sqrt(1 + math.Pow(2, -2*float64(k)))
	}
	cordicGainInv = int64(math.Round((1 / gain) * (1 << 30)))
}

// mulQ30 multiplies a by a Q30 constant.
func mulQ30(a, q30 int64) int64 { return (a * q30) >> 30 }

// Rotate rotates the vector (i, q) by the given phase using CORDIC rotation
// mode and returns the rotated vector with unit gain (the CORDIC gain is
// compensated). Inputs should stay within ±2^28 to avoid overflow through
// the iteration gain of ~1.647.
func Rotate(i, q int32, angle Phase) (int32, int32) {
	x := int64(i)
	y := int64(q)
	// Map the angle into (-90°, 90°] with quadrant correction, since CORDIC
	// rotation converges only for |angle| <= ~99°.
	a := int64(int32(angle))       // signed view: (-2^31, 2^31) == (-180°, 180°)
	const quarter = int64(1) << 30 // 90°
	switch {
	case a > quarter: // (90°, 180°): rotate by a-180° then negate
		a -= quarter * 2
		x, y = -x, -y
	case a < -quarter: // (-180°, -90°)
		a += quarter * 2
		x, y = -x, -y
	}
	x = mulQ30(x, cordicGainInv)
	y = mulQ30(y, cordicGainInv)
	z := a
	for k := 0; k < cordicIters; k++ {
		xs := x >> uint(k)
		ys := y >> uint(k)
		// The rotation direction follows the sign of z. s is 0 for z ≥ 0
		// and −1 otherwise, and (v^s)−s is v or −v: the same two's-
		// complement arithmetic as a branch on the sign, without the
		// branch, which mispredicts about half the time.
		s := z >> 63
		x, y = x-((ys^s)-s), y+((xs^s)-s)
		z -= (atanTable[k] ^ s) - s
	}
	return clamp32(x), clamp32(y)
}

// Vector runs CORDIC vectoring mode: it rotates (i, q) onto the positive x
// axis and returns the (gain-compensated) magnitude together with the angle
// of the input vector.
func Vector(i, q int32) (mag int32, angle Phase) {
	x := int64(i)
	y := int64(q)
	var z int64
	// Pre-rotate out of the left half-plane.
	const half = int64(1) << 31 // 180°
	if x < 0 {
		if y >= 0 {
			x, y = y, -x
			z = half / 2 // started 90° off
		} else {
			x, y = -y, x
			z = -half / 2
		}
	}
	for k := 0; k < cordicIters; k++ {
		xs := x >> uint(k)
		ys := y >> uint(k)
		if y <= 0 {
			x, y = x-ys, y+xs
			z -= atanTable[k]
		} else {
			x, y = x+ys, y-xs
			z += atanTable[k]
		}
	}
	m := mulQ30(x, cordicGainInv)
	return clamp32(m), Phase(uint64(z)) // wraps naturally mod 2^32
}

func clamp32(v int64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

// NCO is a numerically controlled oscillator: a phase accumulator whose
// step encodes frequency/sampleRate as a fraction of 2^32 per sample.
type NCO struct {
	Phase Phase
	Step  Phase
}

// NCOStep converts a frequency in Hz at the given sample rate to a phase
// step.
func NCOStep(freqHz, sampleRateHz float64) Phase {
	frac := freqHz / sampleRateHz
	frac -= math.Floor(frac)
	return Phase(uint64(math.Round(frac*4294967296.0)) & 0xFFFFFFFF)
}

// Next advances the oscillator and returns the phase to apply for the
// current sample.
func (n *NCO) Next() Phase {
	p := n.Phase
	n.Phase += n.Step
	return p
}
