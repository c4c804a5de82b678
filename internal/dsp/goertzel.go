package dsp

import "math"

// Goertzel measures the normalised power of a tone at freq in a real
// signal sampled at rate — the single-bin DFT used as the functional test
// oracle throughout the PAL experiments.
func Goertzel(x []int32, freq, rate float64) float64 {
	if len(x) == 0 {
		return 0
	}
	w := 2 * math.Pi * freq / rate
	c := 2 * math.Cos(w)
	var s1, s2 float64
	for _, v := range x {
		s0 := float64(v) + c*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - c*s1*s2
	return power / float64(len(x)) / float64(len(x))
}
