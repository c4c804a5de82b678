package accel_test

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/dsp"
	"accelshare/internal/sim"
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
	cic, err := enginetest.NewCIC(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    accel.Engine
	}{
		{"Passthrough", accel.Passthrough{}},
		{"Gain", &accel.Gain{}},
		{"Shift", &enginetest.Shift{By: 1}},
		{"Mixer", accel.NewMixer(12345, 1<<20)},
		{"Discriminator", accel.NewDiscriminator()},
		{"FIR", fir},
		{"CIC", cic},
	} {
		t.Run(tc.name, func(t *testing.T) { enginetest.CheckSnapshot(t, tc.e) })
	}
}

func TestCICEngineDecimatesOnTile(t *testing.T) {
	e, err := enginetest.NewCIC(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	outs := 0
	for n := 0; n < 32; n++ {
		out := e.Process(sim.PackIQ(1000, -500), nil)
		outs += len(out)
	}
	if outs != 8 {
		t.Fatalf("outputs = %d, want 8", outs)
	}
	if e.StateWords() != 9 {
		t.Errorf("state words = %d", e.StateWords())
	}
	st := e.SaveState(nil)
	e2, _ := enginetest.NewCIC(2, 4)
	if err := e2.LoadState(st); err != nil {
		t.Fatal(err)
	}
	a := e.Process(sim.PackIQ(123, 456), nil)
	b := e2.Process(sim.PackIQ(123, 456), nil)
	if len(a) != len(b) {
		t.Fatal("restored engine diverges")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored engine output differs")
		}
	}
	if _, err := enginetest.NewCIC(0, 4); err == nil {
		t.Error("invalid CIC accepted")
	}
}
