package cfifo

import (
	"testing"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

func setup(t *testing.T, capacity, ackBatch int) (*sim.Kernel, *FIFO) {
	t.Helper()
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(k, net, Config{
		Name: "t", Capacity: capacity,
		ProducerNode: 0, ConsumerNode: 2,
		DataPort: 1, AckPort: 1,
		AckBatch: ackBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, f
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	net, _ := ring.NewDual(k, 2, 1)
	if _, err := New(k, net, Config{Name: "bad", Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(k, net, Config{Name: "bad", Capacity: 2, AckBatch: 5}); err == nil {
		t.Error("ack batch > capacity accepted")
	}
}

// mustWrite writes a word, draining ring events between attempts (the ring
// injection buffer legitimately backpressures bursts).
func mustWrite(t *testing.T, k *sim.Kernel, f *FIFO, w sim.Word) {
	t.Helper()
	for try := 0; try < 100; try++ {
		if f.TryWrite(w) {
			return
		}
		k.RunAll()
	}
	t.Fatalf("write %d never accepted", w)
}

func TestWriteReadRoundTrip(t *testing.T) {
	k, f := setup(t, 8, 1)
	for i := 0; i < 5; i++ {
		mustWrite(t, k, f, sim.Word(100+i))
	}
	k.RunAll()
	if f.Len() != 5 {
		t.Fatalf("consumer sees %d words", f.Len())
	}
	for i := 0; i < 5; i++ {
		w, ok := f.TryRead()
		if !ok || w != sim.Word(100+i) {
			t.Fatalf("read %d = %d %v", i, w, ok)
		}
	}
	if _, ok := f.TryRead(); ok {
		t.Fatal("read from empty succeeded")
	}
}

func TestProducerRespectsCapacity(t *testing.T) {
	k, f := setup(t, 3, 1)
	accepted := 0
	for i := 0; i < 10; i++ {
		if f.TryWrite(sim.Word(i)) {
			accepted++
		}
		k.RunAll()
	}
	if accepted != 3 {
		t.Fatalf("accepted %d writes into capacity-3 FIFO without reads", accepted)
	}
	if f.Space() != 0 {
		t.Errorf("space = %d, want 0", f.Space())
	}
}

func TestSpaceReturnsAfterRead(t *testing.T) {
	k, f := setup(t, 2, 1)
	f.TryWrite(1)
	f.TryWrite(2)
	k.RunAll()
	if f.Space() != 0 {
		t.Fatalf("space = %d", f.Space())
	}
	f.TryRead()
	k.RunAll() // ack travels back
	if f.Space() != 1 {
		t.Fatalf("space after read+ack = %d, want 1", f.Space())
	}
	if !f.TryWrite(3) {
		t.Fatal("write rejected despite freed space")
	}
}

func TestAckBatching(t *testing.T) {
	k, f := setup(t, 8, 4)
	for i := 0; i < 8; i++ {
		mustWrite(t, k, f, sim.Word(i))
	}
	k.RunAll()
	for i := 0; i < 3; i++ {
		f.TryRead()
	}
	k.RunAll()
	if f.AckMessages != 0 {
		t.Fatalf("acks sent before batch complete: %d", f.AckMessages)
	}
	if f.Space() != 0 {
		t.Fatalf("space leaked without ack: %d", f.Space())
	}
	f.TryRead() // 4th read triggers the batched ack
	k.RunAll()
	if f.AckMessages != 1 {
		t.Fatalf("acks = %d, want 1", f.AckMessages)
	}
	if f.Space() != 4 {
		t.Fatalf("space = %d, want 4", f.Space())
	}
}

func TestExplicitAckFlush(t *testing.T) {
	k, f := setup(t, 8, 8)
	for i := 0; i < 4; i++ {
		f.TryWrite(sim.Word(i))
	}
	k.RunAll()
	f.TryRead()
	f.TryRead()
	k.RunAll()
	if f.Space() != 4 {
		t.Fatalf("premature space: %d", f.Space())
	}
	f.Ack()
	k.RunAll()
	if f.Space() != 6 {
		t.Fatalf("space after explicit ack = %d, want 6", f.Space())
	}
}

func TestSubscriptions(t *testing.T) {
	k, f := setup(t, 2, 1)
	dataWakes, spaceWakes := 0, 0
	f.SubscribeData(sim.NewWaker(k, func() { dataWakes++ }))
	f.SubscribeSpace(sim.NewWaker(k, func() { spaceWakes++ }))
	f.TryWrite(7)
	k.RunAll()
	if dataWakes != 1 {
		t.Errorf("data wakes = %d", dataWakes)
	}
	f.TryRead()
	k.RunAll()
	if spaceWakes != 1 {
		t.Errorf("space wakes = %d", spaceWakes)
	}
}

// TestUnsubscribe: each Unsubscribe removes one earlier subscription of the
// waker, the remaining subscribers keep their wake order, and removing a
// waker that is not subscribed is a no-op.
func TestUnsubscribe(t *testing.T) {
	k, f := setup(t, 4, 1)
	var log string
	wa := sim.NewWaker(k, func() { log += "a" })
	wb := sim.NewWaker(k, func() { log += "b" })
	for _, w := range []*sim.Waker{wa, wb, wa} {
		f.SubscribeData(w)
		f.SubscribeSpace(w)
	}
	steps := []struct {
		drop *sim.Waker
		want string
	}{
		{nil, "ab"},
		{wa, "ba"}, // the first wa goes, the second stays after wb
		{wa, "b"},
		{wa, "b"}, // no longer subscribed: no-op
	}
	for i, st := range steps {
		if st.drop != nil {
			f.UnsubscribeData(st.drop)
			f.UnsubscribeSpace(st.drop)
		}
		log = ""
		mustWrite(t, k, f, sim.Word(i))
		k.RunAll()
		if log != st.want {
			t.Errorf("step %d: data wakes %q, want %q", i, log, st.want)
		}
		log = ""
		if _, ok := f.TryRead(); !ok {
			t.Fatalf("step %d: nothing to read", i)
		}
		k.RunAll()
		if log != st.want {
			t.Errorf("step %d: space wakes %q, want %q", i, log, st.want)
		}
	}
}

func TestManySimultaneousFIFOs(t *testing.T) {
	// The C-FIFO selling point: arbitrary numbers of software FIFOs between
	// the same pair of tiles, no hardware flow control.
	k := sim.NewKernel()
	net, _ := ring.NewDual(k, 4, 1)
	var fifos []*FIFO
	for i := 0; i < 10; i++ {
		f, err := New(k, net, Config{
			Name: "m", Capacity: 4,
			ProducerNode: 0, ConsumerNode: 2,
			DataPort: 10 + i, AckPort: 10 + i,
		})
		if err != nil {
			t.Fatal(err)
		}
		fifos = append(fifos, f)
	}
	for round := 0; round < 4; round++ {
		for i, f := range fifos {
			for !f.TryWrite(sim.Word(i*100 + round)) {
				k.RunAll()
			}
		}
	}
	k.RunAll()
	for i, f := range fifos {
		for round := 0; round < 4; round++ {
			w, ok := f.TryRead()
			if !ok || w != sim.Word(i*100+round) {
				t.Fatalf("fifo %d round %d: %d %v", i, round, w, ok)
			}
		}
	}
}

func TestThroughputOverRing(t *testing.T) {
	// Pipelined producer/consumer: with capacity 8 and ack batch 1, the
	// FIFO should sustain roughly one word per slot period.
	k, f := setup(t, 8, 1)
	const total = 200
	sent, received := 0, 0
	var prod, cons *sim.Waker
	prod = sim.NewWaker(k, func() {
		for sent < total && f.TryWrite(sim.Word(sent)) {
			sent++
		}
	})
	cons = sim.NewWaker(k, func() {
		for {
			if _, ok := f.TryRead(); !ok {
				break
			}
			received++
		}
	})
	f.SubscribeSpace(prod)
	f.SubscribeData(cons)
	prod.Wake()
	k.RunAll()
	if received != total {
		t.Fatalf("received %d of %d", received, total)
	}
	// 200 words over a 2-hop path with full-rate slots: must finish well
	// under 10 cycles/word.
	if k.Now() > total*10 {
		t.Errorf("took %d cycles for %d words", k.Now(), total)
	}
}
