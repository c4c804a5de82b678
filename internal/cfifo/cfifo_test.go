package cfifo

import (
	"testing"
	"unsafe"

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
	if _, err := NewOn(k, net, Config{Name: "bad", Capacity: 4}, make([]sim.Word, 3)); err == nil {
		t.Error("storage of 3 words accepted for capacity 4")
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

// TestRepointRoundTrip moves the consumer A→B→A and the producer P→Q→P, so
// each fail-back moves a binding back to a node it served before. Every
// move starts with a full space view of data in flight on
// the old route, which lands in the settle gap BeginRepoint requires; a
// producer move also leaves the consumer's read-counter updates in flight
// to the old producer binding. Every word is read exactly once and in
// order, space keeps returning, and after each move a probe word and its
// ack take the new route's transit.
func TestRepointRoundTrip(t *testing.T) {
	const hop, nodes, capacity = 3, 6, 4
	const settle = 2 * nodes * hop // longer than any word's injection wait and transit
	const P, Q, A, B = 0, 1, 3, 5
	k := sim.NewKernel()
	net, err := ring.NewDual(k, nodes, hop)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(k, net, Config{Name: "rp", Capacity: capacity, ProducerNode: P, ConsumerNode: A})
	if err != nil {
		t.Fatal(err)
	}
	var arrived, spaced sim.Time
	f.SubscribeData(sim.NewWaker(k, func() { arrived = k.Now() }))
	f.SubscribeSpace(sim.NewWaker(k, func() { spaced = k.Now() }))
	prod, cons := P, A
	transit := func(from, to int) sim.Time {
		return sim.Time(net.Data.(*ring.Ring).Distance(from, to) * hop)
	}
	var next sim.Word
	var read []sim.Word
	write := func() {
		if !f.TryWrite(next) {
			t.Fatalf("write %d refused with space %d", next, f.Space())
		}
		next++
	}
	readAll := func() {
		for w, ok := f.TryRead(); ok; w, ok = f.TryRead() {
			read = append(read, w)
		}
	}
	// probe writes one word into the drained FIFO, reads it on arrival, and
	// times both legs of the current route.
	probe := func() {
		t.Helper()
		k.RunAll()
		if f.Space() != capacity || f.Len() != 0 {
			t.Fatalf("%d→%d: space %d and %d words buffered, want %d and 0", prod, cons, f.Space(), f.Len(), capacity)
		}
		sent := k.Now()
		write()
		k.RunAll()
		if want := sent + transit(prod, cons); arrived != want {
			t.Errorf("%d→%d: word arrived at %d, want %d", prod, cons, arrived, want)
		}
		acked := k.Now()
		readAll()
		k.RunAll()
		if want := acked + transit(cons, prod); spaced != want {
			t.Errorf("%d→%d: ack returned space at %d, want %d", prod, cons, spaced, want)
		}
	}
	// move gates the producer with a full space view in flight, waits out
	// the settle gap and re-points one endpoint.
	move := func(consumer bool, to int) {
		t.Helper()
		for f.Space() > 0 {
			write()
		}
		f.BeginRepoint()
		if f.TryWrite(next) {
			t.Fatal("write accepted while repointing")
		}
		k.Run(k.Now() + settle)
		if f.Len() != capacity {
			t.Fatalf("%d of %d words landed in the settle gap", f.Len(), capacity)
		}
		if consumer {
			f.RepointConsumer(to)
			cons = to
			readAll()
		} else {
			readAll() // the acks travel to the old producer binding
			f.RepointProducer(to)
			prod = to
		}
		probe()
	}
	probe()
	move(true, B)
	move(false, Q)
	move(true, A)
	move(false, P)
	if len(read) != int(next) {
		t.Fatalf("read %d words, wrote %d", len(read), next)
	}
	for i, w := range read {
		if w != sim.Word(i) {
			t.Fatalf("read %v, want 0…%d in order", read, next-1)
		}
	}
}

// TestRepointAllocatesNothing: a re-point moves the endpoint's binding
// rather than installing a new one, so moving both endpoints back and forth
// grows nothing, on the FIFO or in the interconnect's binding slab.
func TestRepointAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(k, net, Config{Name: "rp", Capacity: 4, ProducerNode: 0, ConsumerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	move := func() {
		f.BeginRepoint()
		f.RepointConsumer(4)
		f.RepointProducer(1)
		f.BeginRepoint()
		f.RepointConsumer(2)
		f.RepointProducer(0)
	}
	if a := testing.AllocsPerRun(100, move); a != 0 {
		t.Fatalf("a round trip of both endpoints allocates %v/op, want 0", a)
	}
}

// TestReleaseEndpoints: Drained holds exactly while no word written is on
// the ring or in the buffer. After ReleaseProducer the consumer's
// read-counter updates still travel the ring but no longer grow the
// producer's space view; after ReleaseConsumer a word still in flight is
// carried and discarded.
func TestReleaseEndpoints(t *testing.T) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(k, net, Config{Name: "rel", Capacity: 4, ProducerNode: 0, ConsumerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Drained() {
		t.Fatal("a fresh FIFO is not drained")
	}
	for w := sim.Word(0); w < 2; w++ {
		if !f.TryWrite(w) {
			t.Fatalf("write %d refused", w)
		}
	}
	if f.Drained() {
		t.Error("drained with two words on the ring")
	}
	k.RunAll()
	if f.Drained() || f.Len() != 2 {
		t.Errorf("drained %v with %d words buffered, want false and 2", f.Drained(), f.Len())
	}
	f.ReleaseProducer()
	for w := sim.Word(0); w < 2; w++ {
		if got, ok := f.TryRead(); !ok || got != w {
			t.Fatalf("read %d, %v; want %d", got, ok, w)
		}
	}
	if !f.Drained() {
		t.Error("not drained with every word read")
	}
	k.RunAll()
	if f.AckMessages != 2 || f.Space() != 2 {
		t.Errorf("%d acks sent, space view %d; want 2 acks that leave the view at 2", f.AckMessages, f.Space())
	}
	if !f.TryWrite(2) {
		t.Fatal("write refused with space 2")
	}
	f.ReleaseConsumer()
	k.RunAll()
	if got := net.Data.DeliveredWords(); got != 5 || f.Len() != 0 {
		t.Errorf("%d words carried, %d buffered; want 5 (three data, two acks) and 0", got, f.Len())
	}
}

// TestStorageServesNextFIFO: a retired FIFO's buffer storage serves the
// next FIFO built on it. The successor starts empty, whatever the storage
// held, and its words land in that storage; the retired FIFO keeps none.
func TestStorageServesNextFIFO(t *testing.T) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	old, err := New(k, net, Config{Name: "old", Capacity: 4, ProducerNode: 0, ConsumerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	for w := sim.Word(0); w < 3; w++ {
		mustWrite(t, k, old, 100+w)
	}
	k.RunAll()
	old.TryRead()
	old.ReleaseProducer()
	old.ReleaseConsumer()
	storage := old.DetachStorage()
	if len(storage) != 4 || old.Len() != 0 || old.DetachStorage() != nil {
		t.Fatalf("handed back %d words, %d left buffered; want 4 and 0, and nothing on a second call", len(storage), old.Len())
	}
	if _, ok := old.TryRead(); ok {
		t.Fatal("the retired FIFO still reads a word")
	}

	f, err := NewOn(k, net, Config{Name: "new", Capacity: 4, ProducerNode: 1, ConsumerNode: 3}, storage)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 || f.Space() != 4 {
		t.Fatalf("successor starts with %d words and space %d, want 0 and 4", f.Len(), f.Space())
	}
	for w := sim.Word(0); w < 6; w++ {
		mustWrite(t, k, f, w)
		k.RunAll()
		if got, ok := f.TryRead(); !ok || got != w {
			t.Fatalf("read %d, %v; want %d", got, ok, w)
		}
		k.RunAll()
	}
	if storage[0] != 4 || storage[1] != 5 {
		t.Errorf("storage holds %v, want the successor's words 4 and 5 in its first two places", storage)
	}
}

// TestFIFOSizeClass: on 64-bit platforms a FIFO stays in the 208-byte
// malloc size class (the next is 224). Every stream allocates two, and
// the benchmark's allocation figures rest on that class.
func TestFIFOSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(FIFO{}); got > 208 {
		t.Errorf("a FIFO is %d bytes, past its 208-byte size class", got)
	}
}
