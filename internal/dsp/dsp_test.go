package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestRotateMatchesTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const amp = 1 << 20
	for trial := 0; trial < 500; trial++ {
		angle := rng.Float64()*2*math.Pi - math.Pi
		i0 := int32(rng.Intn(amp*2) - amp)
		q0 := int32(rng.Intn(amp*2) - amp)
		gi, gq := Rotate(i0, q0, RadiansToPhase(angle))
		wi := float64(i0)*math.Cos(angle) - float64(q0)*math.Sin(angle)
		wq := float64(i0)*math.Sin(angle) + float64(q0)*math.Cos(angle)
		// 20 CORDIC iterations: expect ~1e-5 relative accuracy.
		tol := math.Max(64, 1e-4*math.Hypot(wi, wq))
		if math.Abs(float64(gi)-wi) > tol || math.Abs(float64(gq)-wq) > tol {
			t.Fatalf("rotate(%d,%d,%.4f) = (%d,%d), want (%.0f,%.0f)", i0, q0, angle, gi, gq, wi, wq)
		}
	}
}

func TestRotateZeroAngleIdentity(t *testing.T) {
	i, q := Rotate(100000, -50000, 0)
	if math.Abs(float64(i-100000)) > 8 || math.Abs(float64(q+50000)) > 8 {
		t.Errorf("rotate by 0 = (%d, %d)", i, q)
	}
}

func TestRotatePreservesMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		i0 := int32(rng.Intn(1<<22) + 1000)
		q0 := int32(rng.Intn(1<<22) - (1 << 21))
		m0 := math.Hypot(float64(i0), float64(q0))
		i1, q1 := Rotate(i0, q0, Phase(rng.Uint32()))
		m1 := math.Hypot(float64(i1), float64(q1))
		if math.Abs(m1-m0) > math.Max(64, 1e-4*m0) {
			t.Fatalf("magnitude %f -> %f", m0, m1)
		}
	}
}

func TestVectorMatchesAtan2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		i := int32(rng.Intn(1<<22) - (1 << 21))
		q := int32(rng.Intn(1<<22) - (1 << 21))
		if i == 0 && q == 0 {
			continue
		}
		mag, ph := Vector(i, q)
		wantMag := math.Hypot(float64(i), float64(q))
		wantPh := math.Atan2(float64(q), float64(i))
		gotPh := PhaseToRadians(ph)
		dm := math.Abs(float64(mag) - wantMag)
		dp := math.Abs(math.Mod(gotPh-wantPh+3*math.Pi, 2*math.Pi) - math.Pi)
		if dm > math.Max(64, 1e-4*wantMag) {
			t.Fatalf("vector(%d,%d) mag = %d, want %.0f", i, q, mag, wantMag)
		}
		if dp > 1e-4 {
			t.Fatalf("vector(%d,%d) phase = %.6f, want %.6f", i, q, gotPh, wantPh)
		}
	}
}

func TestPhaseConversionsRoundTrip(t *testing.T) {
	for _, r := range []float64{0, 0.1, -0.1, 1.5, -1.5, 3.0, -3.0} {
		p := RadiansToPhase(r)
		back := PhaseToRadians(p)
		d := math.Abs(math.Mod(back-r+3*math.Pi, 2*math.Pi) - math.Pi)
		if d > 1e-8 {
			t.Errorf("roundtrip %.3f -> %.9f", r, back)
		}
	}
}

func TestNCOStep(t *testing.T) {
	// A quarter of the sample rate = 2^30 per sample.
	if s := NCOStep(11025, 44100); s != 1<<30 {
		t.Errorf("step = %d, want %d", s, 1<<30)
	}
	// Negative frequencies wrap.
	if s := NCOStep(-11025, 44100); s != 3<<30 {
		t.Errorf("neg step = %d, want %d", s, uint32(3<<30))
	}
	n := NCO{Step: 1 << 30}
	n.Next()
	n.Next()
	if n.Phase != 1<<31 {
		t.Errorf("phase after 2 = %d", n.Phase)
	}
}

func TestDesignLowPassResponse(t *testing.T) {
	h, err := DesignLowPass(33, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 33 {
		t.Fatalf("taps = %d", len(h))
	}
	if g := Response(h, 0); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %v", g)
	}
	if g := Response(h, 0.01); g < 0.9 {
		t.Errorf("passband gain at 0.01 = %v", g)
	}
	if g := Response(h, 0.2); g > 0.05 {
		t.Errorf("stopband gain at 0.2 = %v", g)
	}
	if g := Response(h, 0.45); g > 0.05 {
		t.Errorf("stopband gain at 0.45 = %v", g)
	}
	// Symmetric (linear phase).
	for i := 0; i < len(h)/2; i++ {
		if math.Abs(h[i]-h[len(h)-1-i]) > 1e-12 {
			t.Errorf("asymmetric at %d", i)
		}
	}
	// The Hamming window holds a 63-tap stopband below -40 dB.
	h, err = DesignLowPass(63, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0.2; f < 0.5; f += 0.002 {
		if g := Response(h, f); g > 0.01 {
			t.Fatalf("63-tap stopband gain at %.3f = %v, above -40 dB", f, g)
		}
	}
}

func TestDesignLowPassValidation(t *testing.T) {
	if _, err := DesignLowPass(32, 0.1); err == nil {
		t.Error("even taps accepted")
	}
	if _, err := DesignLowPass(1, 0.1); err == nil {
		t.Error("too few taps accepted")
	}
	if _, err := DesignLowPass(33, 0.5); err == nil {
		t.Error("cutoff 0.5 accepted")
	}
	if _, err := DesignLowPass(33, 0); err == nil {
		t.Error("cutoff 0 accepted")
	}
}

func TestQuantizeQ15(t *testing.T) {
	q := QuantizeQ15([]float64{0, 0.5, -0.5, 1.5, -1.5})
	want := []int32{0, 16384, -16384, 32767, -32768}
	for i := range want {
		if q[i] != want[i] {
			t.Errorf("q[%d] = %d, want %d", i, q[i], want[i])
		}
	}
}

func TestFIRMatchesDirectConvolution(t *testing.T) {
	coef := QuantizeQ15([]float64{0.25, 0.5, 0.25})
	f, err := NewFIR(coef, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var xs []int32
	for n := 0; n < 50; n++ {
		x := int32(rng.Intn(1<<16) - (1 << 15))
		xs = append(xs, x)
		oi, _, ok := f.Push(x, 0)
		if !ok {
			t.Fatal("decimate-1 FIR must emit every sample")
		}
		var want int64
		for k := 0; k < len(coef); k++ {
			idx := n - (len(coef) - 1 - k)
			if idx >= 0 {
				want += int64(coef[k]) * int64(xs[idx])
			}
		}
		if int64(oi) != want>>15 {
			t.Fatalf("n=%d: out = %d, want %d", n, oi, want>>15)
		}
	}
}

func TestFIRDecimation(t *testing.T) {
	coef := QuantizeQ15([]float64{1})
	f, _ := NewFIR(coef, 8)
	outs := 0
	for n := 0; n < 64; n++ {
		if _, _, ok := f.Push(int32(n), 0); ok {
			outs++
		}
	}
	if outs != 8 {
		t.Errorf("outputs = %d, want 8", outs)
	}
}

func TestFIRValidation(t *testing.T) {
	if _, err := NewFIR(nil, 1); err == nil {
		t.Error("empty coefficients accepted")
	}
	if _, err := NewFIR([]int32{1}, 0); err == nil {
		t.Error("zero decimation accepted")
	}
}

func TestFIRStateSaveLoadRoundTrip(t *testing.T) {
	coef := QuantizeQ15([]float64{0.2, 0.3, 0.3, 0.2})
	a, _ := NewFIR(coef, 3)
	b, _ := NewFIR(coef, 3)
	rng := rand.New(rand.NewSource(1))
	feed := func(f *FIR, n int) []int64 {
		var outs []int64
		for k := 0; k < n; k++ {
			i := int32(rng.Intn(1 << 14))
			q := int32(rng.Intn(1 << 14))
			if oi, oq, ok := f.Push(i, q); ok {
				outs = append(outs, int64(oi)<<32|int64(uint32(oq)))
			}
		}
		return outs
	}
	feed(a, 17)
	st := a.SaveState(nil)
	if err := b.LoadState(st); err != nil {
		t.Fatal(err)
	}
	// After state transplant both filters must behave identically.
	rng = rand.New(rand.NewSource(2))
	var oa, ob []int64
	for k := 0; k < 40; k++ {
		i := int32(rng.Intn(1 << 14))
		q := int32(rng.Intn(1 << 14))
		if x, y, ok := a.Push(i, q); ok {
			oa = append(oa, int64(x)<<32|int64(uint32(y)))
		}
		if x, y, ok := b.Push(i, q); ok {
			ob = append(ob, int64(x)<<32|int64(uint32(y)))
		}
	}
	if len(oa) != len(ob) {
		t.Fatalf("output counts differ: %d vs %d", len(oa), len(ob))
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("outputs diverge at %d", i)
		}
	}
}

func TestFIRLoadStateValidation(t *testing.T) {
	f, _ := NewFIR(QuantizeQ15([]float64{1, 0, 0}), 2)
	if err := f.LoadState(make([]uint64, 2)); err == nil {
		t.Error("wrong size accepted")
	}
	bad := make([]uint64, f.StateWords())
	bad[len(bad)-1] = uint64(99) << 32 // pos out of range
	if err := f.LoadState(bad); err == nil {
		t.Error("corrupt control word accepted")
	}
}

func TestFIRReset(t *testing.T) {
	f, _ := NewFIR(QuantizeQ15([]float64{0.5, 0.5}), 2)
	f.Push(1000, 1000)
	f.Reset()
	oi, oq, ok := f.Push(0, 0)
	if ok {
		t.Fatal("decimation counter not reset")
	}
	oi, oq, ok = f.Push(0, 0)
	if !ok || oi != 0 || oq != 0 {
		t.Errorf("residue after reset: (%d,%d,%v)", oi, oq, ok)
	}
}

func TestMixerShiftsFrequency(t *testing.T) {
	// Mix a tone at +f down by f: the result must be (close to) DC.
	const fs = 1 << 16
	const f = 1200.0
	src := NewModulator(f, 0, fs, 1<<20) // pure carrier
	mix := NewMixer(-f, fs)
	var sumI, sumQ, n float64
	for k := 0; k < 2000; k++ {
		i, q := src.Modulate(0)
		oi, oq := mix.Mix(i, q)
		if k > 100 {
			sumI += float64(oi)
			sumQ += float64(oq)
			n++
		}
	}
	// DC component should be near the carrier amplitude.
	if math.Hypot(sumI/n, sumQ/n) < (1<<20)*0.9 {
		t.Errorf("mixed output not at DC: mean = (%f, %f)", sumI/n, sumQ/n)
	}
}

func TestFMRoundTripRecoversTone(t *testing.T) {
	// Modulate a sine, demodulate, compare (after skipping transients).
	const fs = 200000.0
	const audioF = 1000.0
	const dev = 25000.0
	mod := NewModulator(0, dev, fs, 1<<24) // baseband FM
	dem := NewDiscriminator()
	n := 4000
	var inPeak, outPeak float64
	var dot, inNorm, outNorm float64
	var ins, outs []float64
	for k := 0; k < n; k++ {
		audio := int32(30000 * math.Sin(2*math.Pi*audioF*float64(k)/fs))
		i, q := mod.Modulate(audio)
		out := dem.Demod(i, q)
		if k < 16 {
			continue
		}
		ins = append(ins, float64(audio))
		outs = append(outs, float64(out))
	}
	for k := range ins {
		if math.Abs(ins[k]) > inPeak {
			inPeak = math.Abs(ins[k])
		}
		if math.Abs(outs[k]) > outPeak {
			outPeak = math.Abs(outs[k])
		}
	}
	// Correlation between input and output must be ~1 (same shape).
	for k := range ins {
		a, b := ins[k]/inPeak, outs[k]/outPeak
		dot += a * b
		inNorm += a * a
		outNorm += b * b
	}
	corr := dot / math.Sqrt(inNorm*outNorm)
	if corr < 0.999 {
		t.Errorf("FM roundtrip correlation = %f", corr)
	}
	if outPeak == 0 {
		t.Fatal("no demodulated signal")
	}
}

func TestDiscriminatorFirstSampleZero(t *testing.T) {
	d := NewDiscriminator()
	if out := d.Demod(1000, 0); out != 0 {
		t.Errorf("first output = %d, want 0", out)
	}
	d.Reset()
	if out := d.Demod(0, 1000); out != 0 {
		t.Errorf("after reset = %d, want 0", out)
	}
}

func TestDiscriminatorConstantFrequency(t *testing.T) {
	// A constant-frequency input yields a constant phase step.
	const step = 1 << 26
	n := NCO{Step: step}
	d := NewDiscriminator()
	var outs []int32
	for k := 0; k < 50; k++ {
		i, q := Rotate(1<<22, 0, n.Next())
		outs = append(outs, d.Demod(i, q))
	}
	want := int32(step >> d.OutputShift)
	for k := 5; k < len(outs); k++ {
		if math.Abs(float64(outs[k]-want)) > 4 {
			t.Fatalf("out[%d] = %d, want ~%d", k, outs[k], want)
		}
	}
}
