package ring_test

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/ring"
)

// TestSlottedRingSystemEquivalence runs the same two-stream workload on
// both interconnect implementations: functional outputs must be identical
// and the cycle-true ring's timing must stay within the model bound.
func TestSlottedRingSystemEquivalence(t *testing.T) {
	build := func(slotted bool) *mpsoc.System {
		cfg := mpsoc.MultiConfig{
			HopLatency: 1,
			Chains: []mpsoc.ChainSpec{{
				Name:      "slotcmp",
				EntryCost: 15,
				ExitCost:  1,
				Mode:      gateway.ReconfigFixed,
				Accels:    []mpsoc.AccelSpec{{Name: "a", Cost: 1}},
				Streams: []mpsoc.StreamSpec{
					{
						Name: "x", Block: 16, Decimation: 1, Reconfig: 100,
						InCapacity: 64, OutCapacity: 64,
						Engines:        []accel.Engine{&enginetest.Shift{By: 1}},
						TotalInputs:    256,
						CollectOutputs: true,
					},
					{
						Name: "y", Block: 8, Decimation: 1, Reconfig: 100,
						InCapacity: 32, OutCapacity: 32,
						Engines:        []accel.Engine{&enginetest.Shift{By: 2}},
						TotalInputs:    128,
						CollectOutputs: true,
					},
				},
			}},
		}
		var ms *mpsoc.MultiSystem
		var err error
		if slotted {
			ms, err = mpsoc.BuildOn(cfg, ring.NewDualSlotted)
		} else {
			ms, err = mpsoc.BuildMulti(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		sys := &mpsoc.System{MultiSystem: ms, Chain: ms.Chains[0]}
		sys.Run(3_000_000)
		return sys
	}
	abs := build(false)
	slt := build(true)
	for i := 0; i < 2; i++ {
		if len(abs.Strs[i].Outputs) != len(slt.Strs[i].Outputs) {
			t.Fatalf("stream %d: outputs %d vs %d", i, len(abs.Strs[i].Outputs), len(slt.Strs[i].Outputs))
		}
		for n := range abs.Strs[i].Outputs {
			if abs.Strs[i].Outputs[n] != slt.Strs[i].Outputs[n] {
				t.Fatalf("stream %d output %d differs between interconnects", i, n)
			}
		}
	}
	// Timing: the cycle-true ring adds slot-wait jitter, but both must stay
	// within the analysis bound.
	model := &core.System{
		Chain:   core.Chain{Name: "slotcmp", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "x", Rate: big.NewRat(1, 1), Reconfig: 100, Block: 16},
			{Name: "y", Rate: big.NewRat(1, 1), Reconfig: 100, Block: 8},
		},
	}
	for i := 0; i < 2; i++ {
		gamma, err := model.GammaHat(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []*mpsoc.System{abs, slt} {
			rep := sys.Report()
			if rep.PerStream[i].MaxTurnaround > gamma {
				t.Errorf("stream %d turnaround %d exceeds γ̂ %d (slotted=%v)",
					i, rep.PerStream[i].MaxTurnaround, gamma, sys == slt)
			}
		}
	}
}
