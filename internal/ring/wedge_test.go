package ring

import (
	"testing"

	"accelshare/internal/sim"
)

func TestWedgeNodeRefusesAndDefersInjection(t *testing.T) {
	k := sim.NewKernel()
	r, err := New(k, Config{Name: "w", Nodes: 4, HopLatency: 1, SlotPeriod: 5, InjectionDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []sim.Time
	h := r.Node(2).Bind(func(m Message) { arrivals = append(arrivals, k.Now()) })

	// Two messages: the first departs immediately, the second waits one slot
	// period in the injection buffer.
	if !r.Node(0).TrySend(h, 1) || !r.Node(0).TrySend(h, 2) {
		t.Fatal("sends refused")
	}
	r.WedgeNode(0, 100)
	if r.Node(0).TrySend(h, 3) {
		t.Fatal("wedged node accepted a send")
	}
	if r.nodes[0].WedgeRejects != 1 {
		t.Errorf("WedgeRejects = %d", r.nodes[0].WedgeRejects)
	}
	k.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	// The wedge landed before the first message's pump step (a word sent
	// into an empty buffer keeps its slot until that step's place), so both
	// were frozen until the wedge lifted at t=100.
	if arrivals[0] < 100 || arrivals[1] < 100 {
		t.Errorf("deliveries at t=%v, want both >= 100 (frozen during wedge)", arrivals)
	}
	// Post-wedge traffic flows normally.
	if !r.Node(0).TrySend(h, 4) {
		t.Fatal("send refused after wedge lifted")
	}
	k.RunAll()
	if len(arrivals) != 3 {
		t.Fatalf("post-wedge delivery missing: %d", len(arrivals))
	}
}

func TestWedgeNodePermanent(t *testing.T) {
	k := sim.NewKernel()
	r, err := New(k, Config{Name: "wp", Nodes: 2, HopLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Node(1).Bind(func(Message) {})
	r.WedgeNode(0, 0)
	if r.Node(0).TrySend(h, 7) {
		t.Fatal("permanently wedged node accepted a send")
	}
	k.RunAll() // must terminate: no wake event for a permanent wedge
}

func TestWedgeNodeWakesSpaceSubscribers(t *testing.T) {
	k := sim.NewKernel()
	r, err := New(k, Config{Name: "ws", Nodes: 2, HopLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	woken := 0
	r.Node(0).SubscribeSpace(sim.NewWaker(k, func() { woken++ }))
	r.WedgeNode(0, 20)
	k.RunAll()
	if woken == 0 {
		t.Error("space subscribers not woken at wedge lift")
	}
}
