// The CIC decimator is a test engine (accel/enginetest); its filter tests
// stay with the other DSP filter tests.
package dsp_test

import (
	"math"
	"math/rand"
	"testing"

	"accelshare/internal/accel/enginetest"
)

func TestCICValidation(t *testing.T) {
	if _, err := enginetest.NewCIC(0, 4); err == nil {
		t.Error("0 stages accepted")
	}
	if _, err := enginetest.NewCIC(9, 4); err == nil {
		t.Error("9 stages accepted")
	}
	if _, err := enginetest.NewCIC(2, 0); err == nil {
		t.Error("0 decimation accepted")
	}
}

func TestCICSingleStageIsBoxcar(t *testing.T) {
	// A 1-stage decimate-by-R CIC output equals the sum of the last R
	// inputs (shifted by the gain renormalisation).
	const R = 4
	c, err := enginetest.NewCIC(1, R)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var window []int64
	for n := 0; n < 200; n++ {
		x := int32(rng.Intn(2000) - 1000)
		window = append(window, int64(x))
		oi, _, ok := c.Push(x, 0)
		if !ok {
			continue
		}
		var sum int64
		for _, v := range window[len(window)-R:] {
			sum += v
		}
		if int64(oi) != sum>>c.GainShift {
			t.Fatalf("n=%d: CIC %d != boxcar %d", n, oi, sum>>c.GainShift)
		}
	}
}

func TestCICOutputRate(t *testing.T) {
	c, _ := enginetest.NewCIC(3, 8)
	outs := 0
	for n := 0; n < 64; n++ {
		if _, _, ok := c.Push(1000, -1000); ok {
			outs++
		}
	}
	if outs != 8 {
		t.Fatalf("outputs = %d, want 8", outs)
	}
}

func TestCICDCGainNormalised(t *testing.T) {
	// Constant input: after settling, the output approaches the input
	// value (for power-of-two R the renormalisation is exact).
	c, _ := enginetest.NewCIC(3, 8)
	var last int32
	for n := 0; n < 400; n++ {
		if oi, _, ok := c.Push(5000, 0); ok {
			last = oi
		}
	}
	if math.Abs(float64(last)-5000) > 1 {
		t.Errorf("settled DC output = %d, want ~5000", last)
	}
}

func TestCICLowPassBehaviour(t *testing.T) {
	// CIC nulls sit at multiples of the output rate (fs/R): a tone near the
	// first null — exactly the energy that would alias onto a low frequency
	// after decimation — is crushed relative to a low tone. (That is the
	// filter's job: protect the decimated band from aliasing.)
	const fs = 80000.0
	const R = 8
	measure := func(freq float64) float64 {
		c, _ := enginetest.NewCIC(3, R)
		var peak float64
		n := 4000
		for i := 0; i < n; i++ {
			x := int32(10000 * math.Sin(2*math.Pi*freq*float64(i)/fs))
			if oi, _, ok := c.Push(x, 0); ok && i > n/2 {
				if math.Abs(float64(oi)) > peak {
					peak = math.Abs(float64(oi))
				}
			}
		}
		return peak
	}
	low := measure(200)
	nearNull := measure(9800) // first null at fs/R = 10 kHz
	if nearNull > low/50 {
		t.Errorf("CIC alias rejection weak: low %f vs near-null %f", low, nearNull)
	}
}

func TestCICStateRoundTrip(t *testing.T) {
	a, _ := enginetest.NewCIC(2, 4)
	b, _ := enginetest.NewCIC(2, 4)
	rng := rand.New(rand.NewSource(6))
	for n := 0; n < 37; n++ {
		a.Push(int32(rng.Intn(4000)-2000), int32(rng.Intn(4000)-2000))
	}
	if err := b.LoadState(a.SaveState(nil)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 50; n++ {
		x := int32(rng.Intn(4000) - 2000)
		y := int32(rng.Intn(4000) - 2000)
		ai, aq, aok := a.Push(x, y)
		bi, bq, bok := b.Push(x, y)
		if ai != bi || aq != bq || aok != bok {
			t.Fatalf("diverged at %d", n)
		}
	}
	if err := b.LoadState(make([]uint64, 3)); err == nil {
		t.Error("wrong-size state accepted")
	}
	bad := a.SaveState(nil)
	bad[len(bad)-1] = 99
	if err := b.LoadState(bad); err == nil {
		t.Error("corrupt phase accepted")
	}
}

func TestCICReset(t *testing.T) {
	c, _ := enginetest.NewCIC(2, 2)
	c.Push(1000, 1000)
	c.Reset()
	oi, oq, ok := c.Push(0, 0)
	if ok {
		t.Fatal("phase not reset")
	}
	oi, oq, ok = c.Push(0, 0)
	if !ok || oi != 0 || oq != 0 {
		t.Errorf("residue after reset: %d %d %v", oi, oq, ok)
	}
}
