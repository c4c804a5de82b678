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

// TestGrowZeroAllocPerLiveStream backs the //accellint:noalloc annotation
// on grow: a warm controller's growth decision — candidate, warm-started
// solve, buffer check and plan — allocates nothing at 4 and at 32 live
// streams. Its scratch and its plan record are reused, and the verdict's
// Blocks and the newcomer's rate copy wait for the commit.
func TestGrowZeroAllocPerLiveStream(t *testing.T) {
	newcomerAt := func(n int) newcomer {
		spec := demoStream("new", sim.Time(period*n), 64, 64)
		return newcomer{spec: &spec}
	}
	allocs := map[int]float64{}
	for _, n := range []int{4, 32} {
		c := warmBed(t, n).ctrl
		nc := newcomerAt(n)
		var refused Verdict
		if g := c.grow(EvAdd, nc, func(v Verdict) { refused = v }); g == nil {
			t.Fatalf("n=%d: growth rejected: %s %s", n, refused.Reason, refused.Detail)
		}
		allocs[n] = testing.AllocsPerRun(100, func() { c.grow(EvAdd, nc, nil) })
	}
	if allocs[4] != 0 || allocs[32] != 0 {
		t.Fatalf("grow allocates %v at 4 live streams, %v at 32; want 0", allocs[4], allocs[32])
	}
}

// TestRemovalZeroAlloc backs the //accellint:noalloc annotations on the
// transition path: an accepted RemoveStream, from its decision through the
// drain, the bus transaction and the commit, allocates only its verdict's
// Blocks, and a request the busy gate refuses meanwhile allocates nothing.
// Each run removes another of 32 live streams from a chain that records no
// block turnarounds, so the data path allocates nothing in the window.
func TestRemovalZeroAlloc(t *testing.T) {
	const n = 32
	specs := make([]mpsoc.StreamSpec, n)
	for i := range specs {
		specs[i] = demoStream(fmt.Sprintf("w%d", i), sim.Time(period*n), 64, 64)
	}
	chain := demoChain(t, specs, recoveryCfg())
	chain.RecordTurnarounds = false
	ms, c := buildChain(t, chain)
	k := ms.K
	k.Run(5_000)
	// Parking a stream writes the parked map; its growth is amortised, so
	// the map starts at the size the runs reach.
	c.parked = make(map[string]parkedStream, n)

	var got Verdict
	verdicts, refusals := 0, 0
	done := func(v Verdict) { got = v; verdicts++ }
	refused := func(v Verdict) {
		if v.Reason == ReasonBusy {
			refusals++
		}
	}
	busyAdd := addReq("x", period*n, 64, 64)
	next := 0
	remove := func() {
		before := verdicts
		c.RemoveStream(specs[next].Name, done)
		next++
		c.AddStream(busyAdd, refused)
		for verdicts == before {
			k.Run(k.Now() + 50)
		}
		if !got.Accepted {
			t.Fatalf("removal %d: %s %s", next, got.Reason, got.Detail)
		}
	}
	const runs = 20
	a := testing.AllocsPerRun(runs, remove)
	if refusals != runs+1 || len(got.Blocks) != n-runs-1 {
		t.Fatalf("%d busy refusals over %d removals; last verdict %+v", refusals, runs+1, got)
	}
	if a != 1 {
		t.Fatalf("an accepted removal allocates %v objects, want 1 (its verdict's Blocks)", a)
	}
}
