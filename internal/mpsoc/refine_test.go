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
				{Name: "a0", Cost: 1},
				{Name: "a1", Cost: 1},
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

// TestPerSampleLatencyBound validates core.WorstCaseSampleLatency on the
// simulated platform: every sample's measured input→output latency stays
// below the analytic bound L̂ = ⌈(η-1)/μ⌉ + γ̂. The test is the stream's
// source: it offers one sample every period cycles and stamps each when
// the input C-FIFO accepts it.
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
			Accels:    []AccelSpec{{Name: "a", Cost: 1}},
			Streams: []StreamSpec{{
				Name: "s", Block: eta, Decimation: 1, Reconfig: rs,
				InCapacity: 4 * eta, OutCapacity: 4 * eta,
				Engines:        []accel.Engine{accel.Passthrough{}},
				ExternalSource: true,
			}},
		}},
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Strs[0]
	var inTimes []sim.Time
	var tick func()
	tick = func() {
		if n := len(inTimes); st.In.TryWrite(sim.Word(n)) {
			inTimes = append(inTimes, sys.K.Now())
		}
		if len(inTimes) < total {
			sys.K.Schedule(period, tick)
		}
	}
	sys.K.Schedule(0, tick)
	sys.Run(5_000_000)
	if len(inTimes) != total || len(st.GW.OutTimes) != total {
		t.Fatalf("in=%d out=%d of %d", len(inTimes), len(st.GW.OutTimes), total)
	}

	model := &core.System{
		Chain:   core.Chain{Name: "lat", AccelCosts: []uint64{1}, EntryCost: eps, ExitCost: 1},
		ClockHz: 64, // one sample per cycle of "1 Hz" per 64 clock: rate = 1 sample / 64 cycles
		Streams: []core.Stream{{Name: "s", Rate: big.NewRat(1, 1), Reconfig: rs, Block: eta}},
	}
	bound, err := model.WorstCaseSampleLatency(0)
	if err != nil {
		t.Fatal(err)
	}
	var worst sim.Time
	for k := 0; k < total; k++ {
		lat := st.GW.OutTimes[k] - inTimes[k]
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
