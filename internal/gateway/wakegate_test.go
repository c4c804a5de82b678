package gateway

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/sim"
)

// Entry-gateway wake-gate tests. A stream's FIFO wakes reach the entry step
// only when streamCanAct holds; each test below fails when one clause of
// that gate is missing.

// arrivals records the cycle of every word that reaches f's consumer.
func arrivals(k *sim.Kernel, f *cfifo.FIFO) *[]sim.Time {
	var at []sim.Time
	f.SubscribeData(sim.NewWaker(k, func() { at = append(at, k.Now()) }))
	return &at
}

// TestActivatedStreamQueuedAtFirstWake: a stream activated by ApplySlots
// while the pair is paused becomes eligible without a FIFO edge. The
// ungated entry step stamped its queuedAt at the next wake of any kind —
// here a word arriving on another stream that still lacks a block — and
// recheck keeps that stamp.
func TestActivatedStreamQueuedAtFirstWake(t *testing.T) {
	r := newRig(t, Config{Name: "rc", EntryCost: 1, ExitCost: 1, RecordTurnarounds: true})
	x, inX, _ := r.addStream(t, "x", 2, 16, 32)
	_, inY, _ := r.addStream(t, "y", 4, 16, 32)
	r.pair.Start()
	pauseRig(t, r)
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, Suspend: true}}, 1, nil); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	r.fill(t, inX, 2)
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, Activate: true}}, 1, nil); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	r.k.Run(r.k.Now() + 100)
	yAt := arrivals(r.k, inY)
	if !inY.TryWrite(1) {
		t.Fatal("write refused")
	}
	r.k.RunAll()
	r.k.Run(r.k.Now() + 100)
	r.pair.Resume()
	r.k.RunAll()
	if len(x.Turnarounds) != 1 || len(*yAt) != 1 {
		t.Fatalf("x served %d blocks, y got %d words: want 1 and 1", len(x.Turnarounds), len(*yAt))
	}
	if got, want := x.Turnarounds[0].Queued, (*yAt)[0]; got != want {
		t.Errorf("x queued at %d, want %d (the first entry wake after activation)", got, want)
	}
}

// TestGrownBlockStartsOnCompletingWord: a stream queued with a whole block
// keeps its queued flag when ApplySlots grows its ηs past what its input
// holds. On an idle pair, the word that completes the larger block must
// start it, although the stream is already queued.
func TestGrownBlockStartsOnCompletingWord(t *testing.T) {
	r := newRig(t, Config{Name: "gb", EntryCost: 1, ExitCost: 1, RecordTurnarounds: true})
	x, inX, _ := r.addStream(t, "x", 2, 16, 32)
	r.pair.Start()
	pauseRig(t, r)
	r.fill(t, inX, 2)
	if !x.queued {
		t.Fatal("x not queued with a whole block")
	}
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, SetBlock: 4, SetOutBlock: 4}}, 1, r.pair.Resume); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if x.Blocks != 0 || !x.queued {
		t.Fatalf("x served %d blocks, queued %v before its grown block is whole: want 0 and true", x.Blocks, x.queued)
	}
	xAt := arrivals(r.k, inX)
	r.fill(t, inX, 2)
	if len(x.Turnarounds) != 1 || len(*xAt) != 2 {
		t.Fatalf("x served %d blocks after %d more words, want 1 after 2", len(x.Turnarounds), len(*xAt))
	}
	if got, want := x.Turnarounds[0].Started, (*xAt)[1]; got != want {
		t.Errorf("x started at %d, want %d (the word that completed its block)", got, want)
	}
}

// TestImportedQueuedStreamStartsOnOutputSpace: a stream frozen mid-block
// arrives at the standby with its queued flag set, but the output words its
// aborted attempt committed leave too little output space for a block. On
// the idle standby, the space update that restores OutBlock must start it.
func TestImportedQueuedStreamStartsOnOutputSpace(t *testing.T) {
	r := newFailoverRig(t, recoveryCfg("A"), recoveryCfg("B"))
	in, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "m.in", Capacity: 32, ProducerNode: 6, ConsumerNode: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "m.out", Capacity: 4, ProducerNode: 2, ConsumerNode: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &Stream{Name: "m", Block: 4, OutBlock: 4, Reconfig: 10, In: in, Out: out,
		Engines: []accel.Engine{&accel.Gain{}}}
	if err := r.pairA.AddStream(s); err != nil {
		t.Fatal(err)
	}
	r.feed(t, in, 0, 8)
	r.pairA.Start()
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d before draining the output, want 1", s.Blocks)
	}
	// Drain block 1's output; block 2 starts and commits two words.
	for i := 0; i < 4; i++ {
		if _, ok := out.TryRead(); !ok {
			t.Fatalf("output word %d missing", i)
		}
	}
	if !r.k.RunUntil(50_000, func() bool { return r.pairA.state != stIdle && r.pairA.exitCount == 2 }) {
		t.Fatal("block 2 never committed two words")
	}
	if err := r.pairA.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	in.BeginRepoint()
	r.k.Run(r.k.Now() + 50)
	exports, err := r.pairA.ExportStreams()
	if err != nil {
		t.Fatal(err)
	}
	in.RepointConsumer(3)
	out.RepointProducer(5)
	r.pairB.Start()
	if err := r.pairB.RequestPause(func() {
		if _, err := r.pairB.ImportStream(exports[0]); err != nil {
			t.Errorf("import: %v", err)
		}
		r.pairB.Resume()
	}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if s.Blocks != 1 || !s.queued || out.Space() >= int(s.OutBlock) {
		t.Fatalf("blocks %d, queued %v, output space %d after import: want 1, true and < %d",
			s.Blocks, s.queued, out.Space(), s.OutBlock)
	}
	for i := 0; i < 2; i++ {
		if _, ok := out.TryRead(); !ok {
			t.Fatalf("committed word %d missing", i)
		}
	}
	r.k.RunAll()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d once the output space returned, want 2", s.Blocks)
	}
}
