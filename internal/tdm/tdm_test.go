package tdm

import (
	"testing"

	"accelshare/internal/sim"
)

func TestValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(k, Config{Nodes: 0, WheelSlots: 4}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(k, Config{Nodes: 2, WheelSlots: 0}); err == nil {
		t.Error("zero slots accepted")
	}
	x, err := New(k, Config{Nodes: 2, WheelSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Reserve(9, 0, 1); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := x.Reserve(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := x.Reserve(0, 1, 0); err == nil {
		t.Error("double reservation accepted")
	}
	if err := x.Reserve(1, 5, 0); err == nil {
		t.Error("bad endpoint accepted")
	}
}

func TestSlotScheduledDelivery(t *testing.T) {
	k := sim.NewKernel()
	x, _ := New(k, Config{Nodes: 3, WheelSlots: 4})
	// Connection 0->1 owns slot 2 only.
	if err := x.Reserve(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	var times []sim.Time
	var words []sim.Word
	x.Node(1).Bind(0, func(m Message) {
		times = append(times, k.Now())
		words = append(words, m.W)
	})
	x.Node(0).TrySend(1, 0, 42)
	x.Node(0).TrySend(1, 0, 43)
	k.Run(20)
	// First word departs at cycle 2 (the owned slot), arrives at 4; the
	// second waits a full wheel: departs 6, arrives 8.
	if len(times) != 2 || times[0] != 4 || times[1] != 8 {
		t.Fatalf("delivery times = %v, want [4 8]", times)
	}
	if words[0] != 42 || words[1] != 43 {
		t.Errorf("delivered words %v, want the words sent, [42 43]", words)
	}
}

func TestUnusedSlotsAreWasted(t *testing.T) {
	k := sim.NewKernel()
	x, _ := New(k, Config{Nodes: 2, WheelSlots: 2})
	x.Reserve(0, 0, 1)
	x.Reserve(1, 1, 0) // reverse connection, never used
	x.Node(1).Bind(0, func(Message) {})
	x.Node(0).Bind(0, func(Message) {})
	for i := 0; i < 4; i++ {
		x.Node(0).TrySend(1, 0, sim.Word(i))
	}
	k.Run(100)
	if x.Words != 4 {
		t.Fatalf("delivered %d", x.Words)
	}
	// While 0->1 traffic was pending, every pass over slot 1 was wasted.
	if x.WastedSlots == 0 {
		t.Error("expected wasted reverse-connection slots")
	}
}

func TestInjectionBackpressure(t *testing.T) {
	k := sim.NewKernel()
	x, _ := New(k, Config{Nodes: 2, WheelSlots: 8})
	x.Reserve(0, 0, 1)
	x.Node(1).Bind(0, func(Message) {})
	accepted := 0
	for i := 0; i < injectionDepth+3; i++ {
		if x.Node(0).TrySend(1, 0, 0) {
			accepted++
		}
	}
	if accepted != injectionDepth {
		t.Fatalf("accepted %d with depth %d", accepted, injectionDepth)
	}
	// Senders poll: once the reserved slots drain the buffer, a send is
	// accepted again.
	k.Run(50)
	if !x.Node(0).TrySend(1, 0, 0) {
		t.Error("send refused after the injection buffer drained")
	}
}

func TestWheelParksWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	x, _ := New(k, Config{Nodes: 2, WheelSlots: 4})
	x.Reserve(0, 0, 1)
	got := 0
	x.Node(1).Bind(0, func(Message) { got++ })
	x.Node(0).TrySend(1, 0, 7)
	// RunAll must terminate: the wheel parks after the queue drains.
	k.RunAll()
	if got != 1 {
		t.Fatalf("delivered %d", got)
	}
	// And it restarts with the phase intact.
	x.Node(0).TrySend(1, 0, 8)
	k.RunAll()
	if got != 2 {
		t.Fatalf("delivered %d after restart", got)
	}
}

func TestGuaranteedThroughputUnderContention(t *testing.T) {
	// Two connections each own half the wheel: both sustain one word per
	// two cycles regardless of the other's load.
	k := sim.NewKernel()
	x, _ := New(k, Config{Nodes: 3, WheelSlots: 2})
	x.Reserve(0, 0, 2)
	x.Reserve(1, 1, 2)
	// Source s sends the words 100·s + i, so each delivery names the word
	// its connection should carry next.
	var got [2]int
	x.Node(2).Bind(0, func(m Message) {
		if want := sim.Word(100*m.Src + got[m.Src]); m.W != want {
			t.Errorf("node %d's word %d arrived as %d, want %d", m.Src, got[m.Src], m.W, want)
		}
		got[m.Src]++
	})
	// Each source offers its next word every cycle, twice the rate its slot
	// drains, so both injection buffers stay full.
	var sent [2]int
	var feed func()
	feed = func() {
		for s := range sent {
			if sent[s] < 32 && x.Node(s).TrySend(2, 0, sim.Word(100*s+sent[s])) {
				sent[s]++
			}
		}
		k.Schedule(1, feed)
	}
	k.Schedule(0, feed)
	k.Run(70)
	if got[0] < 30 || got[1] < 30 {
		t.Fatalf("deliveries = %v, want ~32 each within 70 cycles", got)
	}
}
