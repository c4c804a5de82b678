package ring

import (
	"testing"

	"accelshare/internal/sim"
)

func TestSlottedValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewSlotted(k, SlottedConfig{Nodes: 1}); err == nil {
		t.Error("1-node ring accepted")
	}
}

func TestSlottedDelivery(t *testing.T) {
	k := sim.NewKernel()
	r, err := NewSlotted(k, SlottedConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []sim.Word
	var at []sim.Time
	h := r.Node(2).Bind(func(m Message) {
		got = append(got, m.W)
		at = append(at, k.Now())
	})
	if !r.Node(0).TrySend(h, 42) {
		t.Fatal("send rejected")
	}
	k.RunAll()
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
	// 2 hops at 1 cycle/hop: delivery at cycle 2 (injection into the slot
	// passing at t=0 counts as hop 0).
	if at[0] != 2 {
		t.Errorf("delivered at %d, want 2", at[0])
	}
}

func TestSlottedInOrderPerPair(t *testing.T) {
	k := sim.NewKernel()
	r, _ := NewSlotted(k, SlottedConfig{Nodes: 5, InjectionDepth: 16})
	var got []sim.Word
	h := r.Node(3).Bind(func(m Message) { got = append(got, m.W) })
	for i := 0; i < 10; i++ {
		for !r.Node(1).TrySend(h, sim.Word(i)) {
			k.RunAll()
		}
	}
	k.RunAll()
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, w := range got {
		if w != sim.Word(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestSlottedInjectionWaitBounded(t *testing.T) {
	// Guaranteed throughput: with competing traffic, no injection waits
	// longer than one slot revolution per queued word.
	k := sim.NewKernel()
	const nodes = 6
	r, _ := NewSlotted(k, SlottedConfig{Nodes: nodes, InjectionDepth: 2})
	var hs [nodes]Handle
	for i := 0; i < nodes; i++ {
		hs[i] = r.Node(i).Bind(func(Message) {})
	}
	// All nodes flood their successor+2.
	sent := make([]int, nodes)
	const perNode = 50
	var pump func()
	pump = func() {
		progress := false
		for i := 0; i < nodes; i++ {
			if sent[i] < perNode && r.Node(i).TrySend(hs[(i+2)%nodes], sim.Word(sent[i])) {
				sent[i]++
				progress = true
			}
		}
		if progress || !allSent(sent, perNode) {
			k.Schedule(1, pump)
		}
	}
	k.Schedule(0, pump)
	k.RunAll()
	if r.Delivered != nodes*perNode {
		t.Fatalf("delivered %d of %d", r.Delivered, nodes*perNode)
	}
	// A word at the head of the injection queue waits at most one
	// revolution (N cycles) for a free slot; with depth-2 buffering the
	// recorded waits stay within a small multiple.
	if r.MaxWait > 3*nodes {
		t.Errorf("max injection wait %d exceeds 3 revolutions", r.MaxWait)
	}
}

func allSent(sent []int, want int) bool {
	for _, s := range sent {
		if s < want {
			return false
		}
	}
	return true
}

func TestSlottedParksWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	r, _ := NewSlotted(k, SlottedConfig{Nodes: 3})
	n := 0
	h := r.Node(1).Bind(func(Message) { n++ })
	r.Node(0).TrySend(h, 1)
	k.RunAll() // must terminate: ring parks after drain
	if n != 1 {
		t.Fatalf("delivered %d", n)
	}
	r.Node(0).TrySend(h, 2)
	k.RunAll()
	if n != 2 {
		t.Fatalf("restart failed: %d", n)
	}
}

// TestSlottedMatchesAbstraction validates the transaction-level Ring
// against the cycle-true mechanism: under light traffic both deliver with
// hop-count latency, and under saturation the abstraction is optimistic by
// at most one revolution per word (its guaranteed-throughput contract).
func TestSlottedMatchesAbstraction(t *testing.T) {
	const nodes = 6
	const words = 40
	run := func(useSlotted bool) []sim.Time {
		k := sim.NewKernel()
		var times []sim.Time
		record := func(Message) { times = append(times, k.Now()) }
		var tr Transport
		if useSlotted {
			tr, _ = NewSlotted(k, SlottedConfig{Nodes: nodes, InjectionDepth: 64})
		} else {
			tr, _ = New(k, Config{Nodes: nodes, HopLatency: 1, Direction: Clockwise, InjectionDepth: 64})
		}
		h := tr.Node(3).Bind(record)
		for i := 0; i < words; i++ {
			if !tr.Node(0).TrySend(h, sim.Word(i)) {
				t.Fatal("send rejected")
			}
		}
		k.RunAll()
		return times
	}
	abs := run(false)
	slt := run(true)
	if len(abs) != words || len(slt) != words {
		t.Fatalf("deliveries: %d vs %d", len(abs), len(slt))
	}
	for i := 0; i < words; i++ {
		// The abstraction may not be later than the mechanism, and the
		// mechanism lags by at most one revolution per word.
		if abs[i] > slt[i] {
			t.Errorf("word %d: abstraction %d later than slotted %d", i, abs[i], slt[i])
		}
		if slt[i] > abs[i]+nodes {
			t.Errorf("word %d: slotted %d lags abstraction %d by more than a revolution", i, slt[i], abs[i])
		}
	}
}

func TestTransportInterfaceSurface(t *testing.T) {
	// Both implementations satisfy Transport and agree on the accessor
	// surface.
	k := sim.NewKernel()
	var transports []Transport
	r, err := New(k, Config{Nodes: 4, Direction: Clockwise})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSlotted(k, SlottedConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	transports = append(transports, r, s)
	for _, tr := range transports {
		if tr.Nodes() != 4 {
			t.Errorf("Nodes() = %d", tr.Nodes())
		}
		if tr.DeliveredWords() != 0 {
			t.Errorf("fresh transport carried %d words", tr.DeliveredWords())
		}
		n := tr.Node(0)
		if n.Free() <= 0 {
			t.Error("fresh node has no injection space")
		}
	}
	// Carry one word on each and recheck the counters.
	rh := r.Node(1).Bind(func(Message) {})
	sh := s.Node(1).Bind(func(Message) {})
	r.Node(0).TrySend(rh, 1)
	s.Node(0).TrySend(sh, 1)
	k.RunAll()
	if r.DeliveredWords() != 1 || s.DeliveredWords() != 1 {
		t.Errorf("delivered = %d / %d", r.DeliveredWords(), s.DeliveredWords())
	}
}

func TestNewDualSlottedCreditDirection(t *testing.T) {
	k := sim.NewKernel()
	d, err := NewDualSlotted(k, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Credits travel counter-clockwise: a 1-position-back hop is fast.
	var dataAt, creditAt sim.Time
	dh := d.Data.Node(1).Bind(func(Message) { dataAt = k.Now() })
	ch := d.Credit.Node(0).Bind(func(Message) { creditAt = k.Now() })
	d.Data.Node(0).TrySend(dh, 1)   // 1 hop clockwise
	d.Credit.Node(1).TrySend(ch, 1) // 1 hop counter-clockwise
	k.RunAll()
	if dataAt == 0 || creditAt == 0 {
		t.Fatalf("deliveries missing: data %d credit %d", dataAt, creditAt)
	}
	if dataAt > 6 || creditAt > 6 {
		t.Errorf("short hops took data=%d credit=%d cycles", dataAt, creditAt)
	}
	subWakes := 0
	d.Data.Node(2).SubscribeSpace(sim.NewWaker(k, func() { subWakes++ }))
	d.Data.Node(2).TrySend(d.Data.Node(3).Bind(func(Message) {}), 0)
	k.RunAll()
	if subWakes == 0 {
		t.Error("no space wake after injection drained")
	}
}
