package ring

import (
	"slices"
	"testing"

	"accelshare/internal/sim"
)

func TestDistance(t *testing.T) {
	k := sim.NewKernel()
	cw, err := New(k, Config{Nodes: 6, Direction: Clockwise})
	if err != nil {
		t.Fatal(err)
	}
	ccw, _ := New(k, Config{Nodes: 6, Direction: CounterClockwise})
	if d := cw.Distance(0, 3); d != 3 {
		t.Errorf("cw 0->3 = %d", d)
	}
	if d := cw.Distance(4, 1); d != 3 {
		t.Errorf("cw 4->1 = %d (wrap)", d)
	}
	if d := ccw.Distance(0, 3); d != 3 {
		t.Errorf("ccw 0->3 = %d (other way: 6-3)", d)
	}
	if d := ccw.Distance(1, 4); d != 3 {
		t.Errorf("ccw 1->4 = %d", d)
	}
	if d := cw.Distance(2, 2); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestDeliveryLatency(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 4, HopLatency: 3, Direction: Clockwise})
	var got []sim.Time
	h := r.Node(2).Bind(func(m Message) { got = append(got, k.Now()) })
	if !r.Node(0).TrySend(h, 7) {
		t.Fatal("send rejected")
	}
	k.RunAll()
	// Injection at t=0, 2 hops x 3 cycles = delivery at 6.
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("delivery times = %v, want [6]", got)
	}
}

func TestInOrderDelivery(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 4, HopLatency: 1, Direction: Clockwise, InjectionDepth: 8})
	var words []sim.Word
	h := r.Node(1).Bind(func(m Message) { words = append(words, m.W) })
	for i := 0; i < 5; i++ {
		if !r.Node(0).TrySend(h, sim.Word(i)) {
			t.Fatal("send rejected")
		}
	}
	k.RunAll()
	for i, w := range words {
		if w != sim.Word(i) {
			t.Fatalf("out of order: %v", words)
		}
	}
	if len(words) != 5 {
		t.Fatalf("delivered %d", len(words))
	}
}

func TestSlotRateLimiting(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 2, HopLatency: 1, SlotPeriod: 4, Direction: Clockwise, InjectionDepth: 8})
	var times []sim.Time
	h := r.Node(1).Bind(func(m Message) { times = append(times, k.Now()) })
	for i := 0; i < 3; i++ {
		r.Node(0).TrySend(h, 0)
	}
	k.RunAll()
	// Injections at 0, 4, 8; +1 hop => deliveries at 1, 5, 9.
	want := []sim.Time{1, 5, 9}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestInjectionBackpressure(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 2, SlotPeriod: 10, Direction: Clockwise, InjectionDepth: 2})
	h := r.Node(1).Bind(func(Message) {})
	n := r.Node(0)
	accepted := 0
	for i := 0; i < 5; i++ {
		if n.TrySend(h, 0) {
			accepted++
		}
	}
	// Depth 2, but the first send is picked up by the pump at t=0
	// synchronously scheduled; acceptance is bounded by depth.
	if accepted > 3 {
		t.Fatalf("accepted %d with depth 2", accepted)
	}
	wakes := 0
	n.SubscribeSpace(sim.NewWaker(k, func() { wakes++ }))
	k.RunAll()
	if wakes == 0 {
		t.Error("no space wakeups while draining")
	}
}

// TestInvalidHandlePanics: on both transports, TrySend panics on the zero
// Handle and on handles the transport never issued, and sends nothing.
func TestInvalidHandlePanics(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 3, Direction: Clockwise})
	s, _ := NewSlotted(k, SlottedConfig{Nodes: 3})
	for _, tr := range []Transport{r, s} {
		h := tr.Node(1).Bind(func(Message) {})
		if h == 0 {
			t.Fatalf("%T issued the zero Handle", tr)
		}
		for _, bad := range []Handle{0, h + 1, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T: TrySend(%d) did not panic", tr, bad)
					}
				}()
				tr.Node(0).TrySend(bad, 0)
			}()
		}
	}
	k.RunAll()
	if r.Words != 0 || s.Delivered != 0 {
		t.Errorf("invalid handles carried %d and %d words", r.Words, s.Delivered)
	}
}

func TestDualRingDirections(t *testing.T) {
	k := sim.NewKernel()
	d, err := NewDual(k, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Data 0->1 is 1 hop clockwise; credits 1->0 is 1 hop counter-clockwise.
	dr := d.Data.(*Ring)
	cr := d.Credit.(*Ring)
	if dr.Distance(0, 1) != 1 {
		t.Errorf("data 0->1 = %d", dr.Distance(0, 1))
	}
	if cr.Distance(1, 0) != 1 {
		t.Errorf("credit 1->0 = %d", cr.Distance(1, 0))
	}
	// And the opposite directions are the long way around.
	if dr.Distance(1, 0) != 4 {
		t.Errorf("data 1->0 = %d", dr.Distance(1, 0))
	}
}

func TestStatsAccounting(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 4, HopLatency: 2, Direction: Clockwise})
	h := r.Node(3).Bind(func(Message) {})
	r.Node(0).TrySend(h, 0)
	k.RunAll()
	if r.Words != 1 {
		t.Errorf("words = %d", r.Words)
	}
	if r.HopCycles != 6 { // 3 hops x 2 cycles
		t.Errorf("hop cycles = %d", r.HopCycles)
	}
}

// TestUncontendedWordOneEvent: a word sent into an empty buffer with its
// slot free costs one event, its delivery, yet keeps its buffer slot until
// the place of the skipped pump step passes — a same-cycle sender that
// would have run before the step still sees it.
func TestUncontendedWordOneEvent(t *testing.T) {
	k := sim.NewKernel()
	r, _ := New(k, Config{Nodes: 3, HopLatency: 2, InjectionDepth: 1})
	var at []sim.Time
	h := r.Node(2).Bind(func(Message) { at = append(at, k.Now()) })
	n := r.Node(0)
	k.Schedule(4, func() {
		// Scheduled before the send below, so it fires ahead of the step's
		// place: the word still holds the only slot.
		k.Schedule(0, func() {
			if n.Free() != 0 || n.TrySend(h, 2) {
				t.Error("same-cycle sender ahead of the step saw a free slot")
			}
		})
		if !n.TrySend(h, 1) {
			t.Error("uncontended send refused")
		}
		// Scheduled after the send: fires after the step's place.
		k.Schedule(0, func() {
			if n.Free() != 1 {
				t.Errorf("Free = %d after the step's place, want 1", n.Free())
			}
		})
	})
	k.RunAll()
	if len(at) != 1 || at[0] != 8 {
		t.Fatalf("deliveries at %v, want [8]", at)
	}
	// The two probes, the sender, the step the refusal put back and the
	// delivery; the reference ring fires the same five.
	if k.Processed != 5 {
		t.Errorf("%d events, want 5", k.Processed)
	}

	k2 := sim.NewKernel()
	r2, _ := New(k2, Config{Nodes: 3, InjectionDepth: 1})
	h2 := r2.Node(1).Bind(func(Message) {})
	r2.Node(0).TrySend(h2, 1)
	k2.RunAll()
	if k2.Processed != 1 {
		t.Errorf("an unobserved uncontended word fired %d events, want 1 (its delivery)", k2.Processed)
	}
}

// TestReleasedBindingDiscardsLateWord: on both transports, a word still in
// flight when its binding is released fires its delivery event and counts
// as delivered, exactly as it would have without the release, and is
// discarded; the handler never runs and nothing panics. A word sent to the
// released handle later is carried and discarded alike, and no later Bind
// returns the released handle.
func TestReleasedBindingDiscardsLateWord(t *testing.T) {
	for _, slotted := range []bool{false, true} {
		// run sends one word from node 0 to a binding on node 2, releases
		// the binding one cycle later when release is set, and runs to the
		// end.
		var k *sim.Kernel
		run := func(release bool) (events, delivered uint64, calls *int, tr Transport, h Handle) {
			k = sim.NewKernel()
			calls = new(int)
			if slotted {
				tr, _ = NewSlotted(k, SlottedConfig{Nodes: 4})
			} else {
				tr, _ = New(k, Config{Nodes: 4, HopLatency: 3})
			}
			h = tr.Node(2).Bind(func(Message) { *calls++ })
			if !tr.Node(0).TrySend(h, 7) {
				t.Fatal("send refused")
			}
			k.Run(1)
			if *calls != 0 {
				t.Fatalf("slotted=%v: the word landed before the release", slotted)
			}
			if release {
				tr.Release(h)
			}
			k.RunAll()
			return k.Processed, tr.DeliveredWords(), calls, tr, h
		}
		wantEvents, wantDelivered, wantCalls, _, _ := run(false)
		events, delivered, calls, tr, h := run(true)
		if *wantCalls != 1 || wantDelivered != 1 {
			t.Fatalf("slotted=%v: control delivered %d words to %d handler calls, want 1 and 1", slotted, wantDelivered, *wantCalls)
		}
		if events != wantEvents || delivered != wantDelivered || *calls != 0 {
			t.Errorf("slotted=%v: released binding: %d events, %d delivered, %d handler calls; want %d, %d, 0",
				slotted, events, delivered, *calls, wantEvents, wantDelivered)
		}
		if !tr.Node(1).TrySend(h, 8) {
			t.Fatalf("slotted=%v: send to the released handle refused", slotted)
		}
		k.RunAll()
		if tr.DeliveredWords() != 2 || *calls != 0 {
			t.Errorf("slotted=%v: a later send to the released handle: %d words delivered, %d handler calls; want 2 and 0",
				slotted, tr.DeliveredWords(), *calls)
		}
		for i := 0; i < 3; i++ {
			if got := tr.Node(2).Bind(func(Message) {}); got == h {
				t.Fatalf("slotted=%v: Bind issued the released handle %d again", slotted, h)
			}
		}
	}
}

// TestMovedBindingKeepsWordsInFlight: on both transports, a word sent
// before its binding moves lands at the old node and one sent after lands
// at the new node, both in the binding's one handler, each after its own
// route's transit.
func TestMovedBindingKeepsWordsInFlight(t *testing.T) {
	for _, slotted := range []bool{false, true} {
		k := sim.NewKernel()
		var tr Transport
		if slotted {
			tr, _ = NewSlotted(k, SlottedConfig{Nodes: 6})
		} else {
			tr, _ = New(k, Config{Nodes: 6, HopLatency: 1})
		}
		type landing struct {
			w   sim.Word
			dst int
			at  sim.Time
		}
		var got []landing
		h := tr.Node(4).Bind(func(m Message) { got = append(got, landing{m.W, m.Dst, k.Now()}) })
		tr.Node(0).TrySend(h, 1)
		k.Run(1)
		tr.Move(h, 2)
		tr.Node(0).TrySend(h, 2)
		k.RunAll()
		// The second word's shorter route overtakes the first: the reason
		// a C-FIFO gates its producer across a re-point.
		slices.SortFunc(got, func(a, b landing) int { return int(a.w) - int(b.w) })
		if len(got) != 2 || got[0].w != 1 || got[0].dst != 4 || got[1].w != 2 || got[1].dst != 2 {
			t.Fatalf("slotted=%v: landings %+v, want word 1 at node 4 and word 2 at node 2", slotted, got)
		}
		if !slotted && (got[0].at != 4 || got[1].at != 3) {
			t.Errorf("landing times %d and %d, want 4 (four hops from cycle 0) and 3 (two hops from cycle 1)", got[0].at, got[1].at)
		}
	}
}
