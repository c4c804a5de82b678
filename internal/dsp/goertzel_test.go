package dsp

import (
	"math"
	"testing"
)

func TestGoertzelInDSP(t *testing.T) {
	var x []int32
	for n := 0; n < 2000; n++ {
		x = append(x, int32(5000*math.Sin(2*math.Pi*100*float64(n)/8000)))
	}
	on := Goertzel(x, 100, 8000)
	off := Goertzel(x, 333, 8000)
	if on < 1000*off {
		t.Errorf("goertzel separation: on=%g off=%g", on, off)
	}
	if Goertzel(nil, 1, 2) != 0 {
		t.Error("empty input should give 0")
	}
}
