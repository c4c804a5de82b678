package mpsoc

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// TestPerTokenRefinement sharpens the block-level check to per-sample
// granularity: within one block served from an idle pipeline, the k-th
// output sample (1-based) must leave the exit gateway no later than
// Rs + (k+2)·c0 after the gateway begins serving the block — the per-token
// reading of the Fig. 6 schedule that Eq. 2 summarises at k = η.
func TestPerTokenRefinement(t *testing.T) {
	const (
		eta   = 32
		rs    = 500
		eps   = 15
		total = eta
	)
	cfg := MultiConfig{
		HopLatency:        1,
		RecordOutputTimes: true,
		RecordActivity:    true,
		Chains: []ChainSpec{{
			Name:      "tok",
			EntryCost: eps,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels: []AccelSpec{
				{Name: "a0", Cost: 1, NICapacity: 2},
				{Name: "a1", Cost: 1, NICapacity: 2},
			},
			Streams: []StreamSpec{{
				Name: "s", Block: eta, Decimation: 1, Reconfig: rs,
				InCapacity: 4 * eta, OutCapacity: 4 * eta,
				Engines:     []accel.Engine{accel.Passthrough{}, accel.Passthrough{}},
				TotalInputs: total,
			}},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000_000)
	st := sys.Strs[0].GW
	if len(st.OutTimes) != eta {
		t.Fatalf("outputs = %d, want %d", len(st.OutTimes), eta)
	}
	// Block service start = start of the reconfiguration span.
	acts := sys.Pair.Activities
	if len(acts) == 0 || acts[0].Kind != gateway.ActReconfig {
		t.Fatalf("activity trace missing reconfig: %+v", acts)
	}
	blockStart := acts[0].Start
	c0 := sim.Time(eps)
	for k := 1; k <= eta; k++ {
		bound := blockStart + rs + sim.Time(k+2)*c0
		got := st.OutTimes[k-1]
		if got > bound {
			t.Errorf("token %d exits at %d, per-token bound %d (block start %d)", k, got, bound, blockStart)
		}
	}
	// And the bound is not trivially loose: the last token should land
	// within one c0 slack of its bound.
	last := st.OutTimes[eta-1]
	bound := blockStart + rs + sim.Time(eta+2)*c0
	if bound-last > 2*c0 {
		t.Errorf("last token at %d vs bound %d: slack %d too generous", last, bound, bound-last)
	}
}

// TestSlottedRingSystemEquivalence runs the same two-stream workload on
// both interconnect implementations: functional outputs must be identical
// and the cycle-true ring's timing must stay within the model bound.
func TestSlottedRingSystemEquivalence(t *testing.T) {
	build := func(slotted bool) *System {
		cfg := MultiConfig{
			HopLatency:     1,
			UseSlottedRing: slotted,
			Chains: []ChainSpec{{
				Name:      "slotcmp",
				EntryCost: 15,
				ExitCost:  1,
				Mode:      gateway.ReconfigFixed,
				Accels:    []AccelSpec{{Name: "a", Cost: 1, NICapacity: 2}},
				Streams: []StreamSpec{
					{
						Name: "x", Block: 16, Decimation: 1, Reconfig: 100,
						InCapacity: 64, OutCapacity: 64,
						Engines:        []accel.Engine{&accel.Gain{Shift: 1}},
						TotalInputs:    256,
						CollectOutputs: true,
					},
					{
						Name: "y", Block: 8, Decimation: 1, Reconfig: 100,
						InCapacity: 32, OutCapacity: 32,
						Engines:        []accel.Engine{&accel.Gain{Shift: 2}},
						TotalInputs:    128,
						CollectOutputs: true,
					},
				},
			}},
		}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
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
		Chain:   core.Chain{Name: "slotcmp", AccelCosts: []uint64{1}, EntryCost: 15, ExitCost: 1, NICapacity: 2},
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
		for _, sys := range []*System{abs, slt} {
			rep := sys.Report()
			if rep.PerStream[i].MaxTurnaround > gamma {
				t.Errorf("stream %d turnaround %d exceeds γ̂ %d (slotted=%v)",
					i, rep.PerStream[i].MaxTurnaround, gamma, sys == slt)
			}
		}
	}
}

// TestPerSampleLatencyBound validates core.WorstCaseSampleLatency on the
// simulated platform: every sample's measured input→output latency stays
// below the analytic bound L̂ = ⌈(η-1)/μ⌉ + γ̂.
func TestPerSampleLatencyBound(t *testing.T) {
	const (
		eta    = 16
		rs     = 200
		eps    = 15
		period = 64 // cycles per sample: μ = 1/64 samples/cycle
		total  = 256
	)
	cfg := MultiConfig{
		HopLatency:        1,
		RecordOutputTimes: true,
		Chains: []ChainSpec{{
			Name:      "lat",
			EntryCost: eps,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels:    []AccelSpec{{Name: "a", Cost: 1, NICapacity: 2}},
			Streams: []StreamSpec{{
				Name: "s", Block: eta, Decimation: 1, Reconfig: rs,
				InCapacity: 4 * eta, OutCapacity: 4 * eta,
				Engines:          []accel.Engine{accel.Passthrough{}},
				SourcePeriod:     period,
				TotalInputs:      total,
				RecordInputTimes: true,
			}},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5_000_000)
	st := sys.Strs[0]
	if len(st.InTimes) != total || len(st.GW.OutTimes) != total {
		t.Fatalf("in=%d out=%d of %d", len(st.InTimes), len(st.GW.OutTimes), total)
	}

	model := &core.System{
		Chain:   core.Chain{Name: "lat", AccelCosts: []uint64{1}, EntryCost: eps, ExitCost: 1, NICapacity: 2},
		ClockHz: 64, // one sample per cycle of "1 Hz" per 64 clock: rate = 1 sample / 64 cycles
		Streams: []core.Stream{{Name: "s", Rate: big.NewRat(1, 1), Reconfig: rs, Block: eta}},
	}
	bound, err := model.WorstCaseSampleLatency(0)
	if err != nil {
		t.Fatal(err)
	}
	var worst sim.Time
	for k := 0; k < total; k++ {
		lat := st.GW.OutTimes[k] - st.InTimes[k]
		if lat > worst {
			worst = lat
		}
	}
	if worst > bound {
		t.Fatalf("worst per-sample latency %d exceeds bound %d", worst, bound)
	}
	// Sanity on tightness: the bound should be within ~2x of measured here
	// (single stream, so no interference term inflates γ̂).
	if bound > 3*worst {
		t.Errorf("bound %d very loose vs measured %d", bound, worst)
	}
	t.Logf("worst per-sample latency %d cycles vs bound %d", worst, bound)
}
