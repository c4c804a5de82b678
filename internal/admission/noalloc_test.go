package admission

import (
	"fmt"
	"testing"

	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// warmBed is a running chain of n live streams at μ = 1/(75·n) each, so
// the live set uses a fifth of the chain whatever n is, with its
// controller.
func warmBed(t *testing.T, n int) *bed {
	t.Helper()
	specs := make([]mpsoc.StreamSpec, n)
	for i := range specs {
		specs[i] = demoStream(fmt.Sprintf("w%d", i), sim.Time(period*n), 64, 64)
	}
	ms, ctrl := buildChain(t, demoChain(t, specs, recoveryCfg()))
	return &bed{ms: ms, ctrl: ctrl}
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
		spec := demoStream("new", sim.Time(period*n), 64, 64)
		return newcomer{spec: &spec}
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
