package ring

import (
	"testing"

	"accelshare/internal/sim"
)

// TestRingZeroAllocSteadyState backs the //accellint:noalloc annotations on
// TrySend, Free, held, restep, pump, pumpStep, emit, latency, newFlight and
// deliver:
// after the cold start (lazy injection ring, pump method value, flight-pool
// growth to the in-flight high-water mark), moving words across the ring
// allocates nothing — the same pooled-record discipline as the sim kernel's
// event records. It covers the three send paths: a burst that buffers
// behind a held word (the skipped step put back, then pumped), one
// uncontended word per cycle (no pump step at all), and a refused send and
// a Free reading inside a held word's window (both put the step back).
func TestRingZeroAllocSteadyState(t *testing.T) {
	k := sim.NewKernel()
	r, err := New(k, Config{Name: "d", Nodes: 4, InjectionDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := New(k, Config{Name: "t", Nodes: 4, InjectionDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	h := r.Node(2).Bind(func(m Message) { got++ })
	th := tight.Node(3).Bind(func(m Message) { got++ })
	burst := func() {
		for i := 0; i < 16; i++ {
			for !r.nodes[0].TrySend(h, sim.Word(i)) {
				k.Step()
			}
		}
		k.RunAll()
	}
	uncontended := func() {
		for i := 0; i < 16; i++ {
			if !r.nodes[1].TrySend(h, sim.Word(i)) {
				t.Fatal("uncontended send refused")
			}
			k.Run(k.Now() + 1)
		}
		k.RunAll()
	}
	refused := func() {
		n := tight.nodes[0]
		if !n.TrySend(th, 1) {
			t.Fatal("send into an empty buffer refused")
		}
		if n.TrySend(th, 2) {
			t.Fatal("send accepted while the held word fills the buffer")
		}
		k.RunAll()
		if !n.TrySend(th, 3) {
			t.Fatal("send into an empty buffer refused")
		}
		if n.Free() != 0 {
			t.Fatal("Free does not count the held word")
		}
		k.RunAll()
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"burst", burst}, {"uncontended", uncontended}, {"refused", refused}} {
		c.fn() // cold start: injection ring, pump fn, flight pool
		before := k.Processed
		if a := testing.AllocsPerRun(200, c.fn); a != 0 {
			t.Fatalf("%s: steady-state ring transport allocates %v/op, want 0", c.name, a)
		}
		if k.Processed == before {
			t.Fatalf("%s: no events fired", c.name)
		}
	}
	if got == 0 {
		t.Fatal("no deliveries")
	}
}
