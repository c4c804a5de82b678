package enginetest

import (
	"accelshare/internal/accel"
	"accelshare/internal/sim"
)

// Shift multiplies both components of every sample by 2^By: a stateful
// engine whose outputs differ from its inputs, for the tests that must see
// an engine act on the values it carries. The embedded Gain counts the
// samples and carries the count through context switches.
type Shift struct {
	accel.Gain
	By uint8
}

// Process scales the sample and counts it.
func (s *Shift) Process(w sim.Word, out []sim.Word) []sim.Word {
	i, q := sim.UnpackIQ(w)
	return s.Gain.Process(sim.PackIQ(i<<s.By, q<<s.By), out)
}
