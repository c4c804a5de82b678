package admission

import (
	"fmt"
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// warmBed is a running chain of n live streams at μ = 1/(75·n) each, so
// the live set uses a fifth of the chain whatever n is, with its
// controller.
func warmBed(t *testing.T, n int) *bed {
	t.Helper()
	rate := big.NewRat(1, int64(period*n))
	names := make([]string, n)
	rates := make([]*big.Rat, n)
	for i := range names {
		names[i], rates[i] = fmt.Sprintf("w%d", i), rate
	}
	model := demoModel(names, rates)
	if _, err := model.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	var specs []mpsoc.StreamSpec
	for i := range model.Streams {
		specs = append(specs, mpsoc.StreamSpec{
			Name: model.Streams[i].Name, Block: model.Streams[i].Block, Decimation: 1,
			Reconfig: rsCycles, InCapacity: 64, OutCapacity: 64, SourcePeriod: sim.Time(period * n),
			Engines: []accel.Engine{&accel.Gain{}},
		})
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{
		Chains: []mpsoc.ChainSpec{{
			Name: "demo", EntryCost: entryCost, ExitCost: 1, Mode: gateway.ReconfigFixed,
			Accels:  []mpsoc.AccelSpec{{Name: "acc", Cost: 1}},
			Streams: specs, DrainTimeout: 200, Recovery: recoveryCfg(), ReserveSlots: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ms, Config{Chain: 0, Model: model, PerSlotCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	return &bed{ms: ms, ctrl: ctrl, model: model}
}

// TestCheckBuffersZeroAlloc backs the //accellint:noalloc annotation on
// checkBuffers: γ̂s once, then every stream's fixed-width input bound.
func TestCheckBuffersZeroAlloc(t *testing.T) {
	c := warmBed(t, 8).ctrl
	caps := c.liveCaps(nil)
	if detail, err := checkBuffers(c.model, c.decim, caps); detail != "" || err != nil {
		t.Fatalf("checkBuffers = %q, %v; want a pass", detail, err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := checkBuffers(c.model, c.decim, caps); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("checkBuffers: %v allocs per run, want 0", a)
	}
}

// TestGrowZeroAllocPerLiveStream: a warm controller's growth decision —
// candidate, warm-started solve, buffer check and plan — allocates the
// same constant at 4 and at 32 live streams. Its scratch is reused, so no
// allocation is per live stream.
func TestGrowZeroAllocPerLiveStream(t *testing.T) {
	newcomerAt := func(n int) newcomer {
		return newcomer{
			Stream:     core.Stream{Name: "new", Rate: big.NewRat(1, int64(period*n)), Reconfig: rsCycles},
			decimation: 1, caps: [2]int{64, 64},
		}
	}
	allocs := map[int]float64{}
	for _, n := range []int{4, 32} {
		c := warmBed(t, n).ctrl
		nc := newcomerAt(n)
		if g := c.grow(EvAdd, nc, nil); g == nil {
			t.Fatalf("n=%d: growth rejected: %+v", n, c.Events())
		}
		allocs[n] = testing.AllocsPerRun(100, func() { c.grow(EvAdd, nc, nil) })
	}
	t.Logf("grow allocs per decision: %v at 4 live streams, %v at 32", allocs[4], allocs[32])
	if allocs[4] != allocs[32] {
		t.Fatalf("grow allocates %v at 4 live streams, %v at 32; want the same constant", allocs[4], allocs[32])
	}
}
