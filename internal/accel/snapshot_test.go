package accel_test

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/dsp"
)

// TestEngineSnapshotContract holds every built-in engine to the snapshot
// contract the gateway's per-slot state buffers rely on.
func TestEngineSnapshotContract(t *testing.T) {
	lpf, err := dsp.DesignLowPass(33, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fir, err := accel.NewFIR(dsp.QuantizeQ15(lpf), 8)
	if err != nil {
		t.Fatal(err)
	}
	cic, err := accel.NewCIC(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    accel.Engine
	}{
		{"Passthrough", accel.Passthrough{}},
		{"Gain", &accel.Gain{Shift: 1}},
		{"Mixer", accel.NewMixer(12345, 1<<20)},
		{"Discriminator", accel.NewDiscriminator()},
		{"FIR", fir},
		{"CIC", cic},
	} {
		t.Run(tc.name, func(t *testing.T) { enginetest.CheckSnapshot(t, tc.e) })
	}
}
