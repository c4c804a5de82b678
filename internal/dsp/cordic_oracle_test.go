package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// rotateBranchy is Rotate with the rotation direction chosen by a branch
// on the sign of z: the reference the branch-free loop is held to.
func rotateBranchy(i, q int32, angle Phase) (int32, int32) {
	x := int64(i)
	y := int64(q)
	a := int64(int32(angle))
	const quarter = int64(1) << 30
	switch {
	case a > quarter:
		a -= quarter * 2
		x, y = -x, -y
	case a < -quarter:
		a += quarter * 2
		x, y = -x, -y
	}
	x = mulQ30(x, cordicGainInv)
	y = mulQ30(y, cordicGainInv)
	z := a
	for k := 0; k < cordicIters; k++ {
		xs := x >> uint(k)
		ys := y >> uint(k)
		if z >= 0 {
			x, y = x-ys, y+xs
			z -= atanTable[k]
		} else {
			x, y = x+ys, y-xs
			z += atanTable[k]
		}
	}
	return clamp32(x), clamp32(y)
}

// TestRotateMatchesBranchyOracle: the branch-free rotation is bit-identical
// to the branchy reference on 10M random (i, q, angle) triples and on the
// edges — the (Amplitude, 0) inputs Modulate rotates, angles at ±90° and
// ±180°, the zero vector and magnitudes of ±2^28.
func TestRotateMatchesBranchyOracle(t *testing.T) {
	check := func(i, q int32, a Phase) {
		gx, gy := Rotate(i, q, a)
		wx, wy := rotateBranchy(i, q, a)
		if gx != wx || gy != wy {
			t.Fatalf("Rotate(%d, %d, %#x) = (%d, %d), reference (%d, %d)", i, q, a, gx, gy, wx, wy)
		}
	}
	// Signed angles: ±90° is ±2^30, and ±180° is the int32 limits.
	const quarter = 1 << 30
	angles := []int32{0, 1, -1, quarter - 1, quarter, quarter + 1, -quarter - 1, -quarter, -quarter + 1,
		math.MaxInt32, math.MinInt32, math.MinInt32 + 1}
	mags := []int32{0, 1, -1, 1 << 24, 1 << 28, -(1 << 28), 1<<28 - 1, -(1<<28 - 1)}
	for _, a := range angles {
		for _, i := range mags {
			for _, q := range mags {
				check(i, q, Phase(a))
			}
		}
	}
	mod := NewModulator(0, 25000, 200000, 1<<24)
	for s := 0; s < 1<<16; s++ {
		check(mod.Amplitude, 0, Phase(s)*65537)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 10_000_000; k++ {
		check(int32(rng.Int63n(1<<29))-1<<28, int32(rng.Int63n(1<<29))-1<<28, Phase(rng.Uint32()))
	}
}
