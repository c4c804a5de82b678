package cfifo

import (
	"testing"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// TestCFIFOZeroAlloc backs the //accellint:noalloc annotations on TryWrite
// and TryRead: in the steady state — injection ring sized, flight and event
// pools at their high-water marks, wakers constructed — moving a block
// producer→ring→consumer word by word and acking it back allocates nothing.
// (The flushAck retry closure is the known exception and only fires when
// the ring refuses an injection, which the kernel drain between words
// prevents here.)
func TestCFIFOZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(k, net, Config{
		Name: "z", Capacity: 64, ProducerNode: 0, ConsumerNode: 2,
		DataPort: 1, AckPort: 2, AckBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SubscribeData(sim.NewWaker(k, func() {}))
	f.SubscribeSpace(sim.NewWaker(k, func() {}))
	const block = 16
	move := func() {
		for sent := 0; sent < block; {
			if f.TryWrite(sim.Word(sent)) {
				sent++
			}
			k.RunAll() // drain ring + acks so injections never stall
		}
		for read := 0; read < block; {
			if w, ok := f.TryRead(); ok {
				if w != sim.Word(read) {
					t.Fatalf("read %d = %d", read, w)
				}
				read++
			}
			k.RunAll()
		}
	}
	move() // cold start: pools, wakers, lazy buffers
	move()
	if a := testing.AllocsPerRun(200, move); a != 0 {
		t.Fatalf("steady-state TryWrite/TryRead allocates %v/op, want 0", a)
	}
}
