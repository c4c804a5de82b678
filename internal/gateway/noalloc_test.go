package gateway

import (
	"testing"

	"accelshare/internal/cfifo"
	"accelshare/internal/sim"
)

// TestDataPathZeroAllocRecovery is the testing.AllocsPerRun guard behind the
// pair's //accellint:noalloc annotations: a two-stream chain in the fleets'
// recovery configuration — watchdog armed, checkpoint every 4 samples,
// value-exact staging — runs without a heap allocation once warm. Each
// window spans many blocks, so it covers the engine swaps, the block-start
// and checkpoint snapshots into the retry buffers, the stage commits, the
// idle notifications and the watchdog re-arms (the 50-cycle window is
// shorter than one block).
func TestDataPathZeroAllocRecovery(t *testing.T) {
	r := newRig(t, Config{
		Name: "fleet", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 50,
		Recovery: Recovery{
			Enabled: true, RetryLimit: 2,
			Checkpoint: 4, CheckpointCost: 5, ValueExact: true,
		},
	})
	// Each lane feeds its stream sequential words from a periodic source
	// and checks that its sink reads them back in order (Gain with shift 0
	// is the identity).
	type lane struct {
		in, out         *cfifo.FIFO
		next, got, errs uint64
	}
	lanes := make([]*lane, 2)
	for i := range lanes {
		_, in, out := r.addStream(t, "s", 32, 64, 64)
		l := &lane{in: in, out: out}
		lanes[i] = l
		var tick func()
		tick = func() {
			if l.in.TryWrite(sim.Word(l.next)) {
				l.next++
			}
			r.k.Schedule(3, tick)
		}
		r.k.Schedule(0, tick)
		out.SubscribeData(sim.NewWaker(r.k, func() {
			for {
				w, ok := l.out.TryRead()
				if !ok {
					return
				}
				if w != sim.Word(l.got) {
					l.errs++
				}
				l.got++
			}
		}))
	}
	r.pair.Start()
	r.k.Run(5_000) // warm up: every buffer at its high-water mark
	before := r.pair.Snapshot()
	ckpts := r.pair.Checkpoints
	const window = 2_000
	if a := testing.AllocsPerRun(20, func() { r.k.Run(r.k.Now() + window) }); a != 0 {
		t.Fatalf("recovery data path allocates %v per %d-cycle window, want 0", a, window)
	}
	for i, s := range r.pair.Snapshot() {
		if s.Blocks-before[i].Blocks < 50 {
			t.Fatalf("stream %d served only %d blocks in the measured windows", i, s.Blocks-before[i].Blocks)
		}
	}
	if r.pair.Checkpoints-ckpts < 300 {
		t.Fatalf("only %d checkpoints in the measured windows", r.pair.Checkpoints-ckpts)
	}
	for i, s := range r.pair.Snapshot() {
		if s.Stalls != 0 {
			t.Fatalf("stream %d: %d watchdog stalls on a healthy chain", i, s.Stalls)
		}
	}
	for i, l := range lanes {
		if l.errs != 0 || l.got == 0 {
			t.Fatalf("lane %d: %d words out of order among %d read", i, l.errs, l.got)
		}
	}
}

// TestApplySlotsZeroAlloc backs the //accellint:noalloc annotations on
// ApplySlots and its completion: once the pair's update storage has grown
// to the largest transaction, a paused pair's slot transaction — validate,
// copy, bus transfer, reprogram, done — allocates nothing.
func TestApplySlotsZeroAlloc(t *testing.T) {
	r := newRig(t, Config{Name: "slots", EntryCost: 1, ExitCost: 1})
	var streams []*Stream
	for _, name := range []string{"a", "b", "c"} {
		s, _, _ := r.addStream(t, name, 4, 16, 16)
		streams = append(streams, s)
	}
	r.pair.Start()
	pauseRig(t, r)
	ups := make([]SlotUpdate, len(streams))
	done := 0
	onDone := func() { done++ }
	block := int64(4)
	apply := func() {
		block = block%8 + 1
		for i := range ups {
			ups[i] = SlotUpdate{Stream: i, SetBlock: block, SetOutBlock: block}
		}
		if err := r.pair.ApplySlots(ups, 10, onDone); err != nil {
			t.Fatal(err)
		}
		r.k.RunAll()
	}
	if a := testing.AllocsPerRun(100, apply); a != 0 {
		t.Fatalf("ApplySlots: %v allocs per transaction, want 0", a)
	}
	if done != 101 {
		t.Fatalf("%d completions, want 101", done)
	}
	for _, s := range streams {
		if s.Block != block || s.OutBlock != block {
			t.Fatalf("slot %s runs %d/%d, want %d", s.Name, s.Block, s.OutBlock, block)
		}
	}
}
