package gateway

import (
	"slices"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
)

// servedSince returns the stream of every block started after the first
// from recorded activities, in service order (one reconfiguration span per
// block on a fault-free rig).
func servedSince(p *Pair, from int) []int {
	var out []int
	for _, a := range p.Activities[from:] {
		if a.Kind == ActReconfig {
			out = append(out, a.Stream)
		}
	}
	return out
}

// pauseRig requests a pause and runs until it lands.
func pauseRig(t *testing.T, r *rig) {
	t.Helper()
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if !r.pair.Paused() {
		t.Fatal("pause did not land")
	}
}

// releaseSlots suspends the given slots in one paused transition and
// replaces each with a Released tombstone. The pair stays paused.
func releaseSlots(t *testing.T, r *rig, slots ...int) {
	t.Helper()
	var ups []SlotUpdate
	for _, s := range slots {
		ups = append(ups, SlotUpdate{Stream: s, Suspend: true})
	}
	if err := r.pair.ApplySlots(ups, 1, nil); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	for _, s := range slots {
		ex, err := r.pair.ReleaseSlot(s)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Stream.Suspended {
			t.Fatalf("slot %d: exported stream still suspended", s)
		}
		if tomb := r.pair.Streams()[s]; !tomb.Released || !tomb.Suspended || tomb.In != nil {
			t.Fatalf("slot %d: not a tombstone: %+v", s, tomb)
		}
	}
}

// eventsFor runs fn on an idle kernel and returns how many events it cost.
func eventsFor(r *rig, fn func()) uint64 {
	r.k.RunAll()
	before := r.k.Processed
	fn()
	r.k.RunAll()
	return r.k.Processed - before
}

// TestRoundRobinAcrossReleasedSlots: tombstones interleaved among live
// slots — including the slot rr points at and the last slot — are skipped
// without disturbing the rotation, a slot added later joins it, and a
// released stream's input no longer wakes the pair's entry gateway.
func TestRoundRobinAcrossReleasedSlots(t *testing.T) {
	r := newRig(t, Config{Name: "rel", EntryCost: 1, ExitCost: 1, RecordActivity: true})
	var ins []*cfifo.FIFO
	for i := 0; i < 6; i++ {
		_, in, _ := r.addStream(t, string(rune('a'+i)), 2, 16, 32)
		ins = append(ins, in)
	}
	r.pair.Start()

	// Serve slot 2 alone: rr now points at slot 3.
	r.fill(t, ins[2], 2)
	if got := servedSince(r.pair, 0); !slices.Equal(got, []int{2}) {
		t.Fatalf("warm-up served %v, want [2]", got)
	}

	// Release slot 1, the slot rr points at (3) and the last slot (5); live
	// slots 0, 2, 4 each get one block while the pair is paused.
	pauseRig(t, r)
	releaseSlots(t, r, 1, 3, 5)
	for _, i := range []int{0, 2, 4} {
		r.fill(t, ins[i], 2)
	}
	mark := len(r.pair.Activities)
	r.pair.Resume()
	r.k.RunAll()
	// From rr = 3: slot 4 (3 is a tombstone), then past the released last
	// slot back to 0, then 2 (skipping tombstone 1).
	if got := servedSince(r.pair, mark); !slices.Equal(got, []int{4, 0, 2}) {
		t.Fatalf("served %v after release, want [4 0 2]", got)
	}

	// Slots added through AddStreamLive (indices 6 and 7) join the
	// rotation; after serving 6, rr points at the live slot 7, which goes
	// next.
	pauseRig(t, r)
	var acts []SlotUpdate
	for i := 6; i < 8; i++ {
		name := string(rune('a' + i))
		in, err := newTestFIFO(r, name+".in", 16, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := newTestFIFO(r, name+".out", 32, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := r.pair.AddStreamLive(&Stream{
			Name: name, Block: 2, OutBlock: 2, Reconfig: 10, In: in, Out: out,
			Engines: []accel.Engine{&accel.Gain{}}, Suspended: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("live slot index = %d, want %d", idx, i)
		}
		ins = append(ins, in)
		acts = append(acts, SlotUpdate{Stream: idx, Activate: true})
	}
	for _, i := range []int{0, 2, 4, 6, 7} {
		r.fill(t, ins[i], 2)
	}
	mark = len(r.pair.Activities)
	if err := r.pair.ApplySlots(acts, 1, r.pair.Resume); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if got := servedSince(r.pair, mark); !slices.Equal(got, []int{4, 6, 7, 0, 2}) {
		t.Fatalf("served %v with the live-added slots, want [4 6 7 0 2]", got)
	}

	// A word pushed into a released stream's input costs exactly what it
	// costs on a FIFO nobody subscribes to. On a live slot it wakes the
	// entry gateway only when it completes the slot's block: the wake's
	// gate drops the edges the entry step cannot act on.
	control, err := newTestFIFO(r, "ctl.in", 16, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	push := func(f *cfifo.FIFO) uint64 {
		return eventsFor(r, func() {
			if !f.TryWrite(1) {
				t.Fatalf("%s: write refused", f.Name())
			}
		})
	}
	base := push(control)
	for _, i := range []int{1, 3, 5} {
		if got := push(ins[i]); got != base {
			t.Errorf("released slot %d: a pushed word cost %d events, want %d (entry gateway still subscribed)", i, got, base)
		}
	}
	// Paused, so the completed block stays queued instead of being served.
	pauseRig(t, r)
	if got := push(ins[0]); got != base {
		t.Errorf("live slot 0: a word short of a block cost %d events, want %d (no entry-gateway wake)", got, base)
	}
	if got := push(ins[0]); got != base+1 {
		t.Errorf("live slot 0: the block-completing word cost %d events, want %d (one entry-gateway wake)", got, base+1)
	}
}

// TestFixedPriorityAcrossReleasedSlots: under FixedPriority the lowest
// live index wins, whatever tombstones precede it.
func TestFixedPriorityAcrossReleasedSlots(t *testing.T) {
	r := newRig(t, Config{Name: "relfp", EntryCost: 1, ExitCost: 1, RecordActivity: true, Arbiter: FixedPriority})
	var ins []*cfifo.FIFO
	for i := 0; i < 4; i++ {
		_, in, _ := r.addStream(t, string(rune('a'+i)), 2, 16, 32)
		ins = append(ins, in)
	}
	r.pair.Start()
	pauseRig(t, r)
	releaseSlots(t, r, 0, 2)
	r.fill(t, ins[3], 2)
	r.fill(t, ins[1], 4)
	r.pair.Resume()
	r.k.RunAll()
	// Round robin would alternate 1, 3, 1; fixed priority drains slot 1
	// (the lowest live index) first.
	if got := servedSince(r.pair, 0); !slices.Equal(got, []int{1, 1, 3}) {
		t.Fatalf("served %v, want [1 1 3]", got)
	}
}

// TestExportStreamsUnsubscribes: a frozen pair that exported its streams —
// a Released tombstone among them — is no longer woken by their inputs: a
// pushed word costs exactly what it costs on a FIFO nobody subscribes to.
func TestExportStreamsUnsubscribes(t *testing.T) {
	r := newFailoverRig(t, recoveryCfg("A"), recoveryCfg("B"))
	_, inGone, _ := r.addStreamA(t, "gone", 4)
	_, inKept, _ := r.addStreamA(t, "kept", 4)
	r.pairA.Start()
	if err := r.pairA.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if err := r.pairA.ApplySlots([]SlotUpdate{{Stream: 0, Suspend: true}}, 1, nil); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if _, err := r.pairA.ReleaseSlot(0); err != nil {
		t.Fatal(err)
	}
	if err := r.pairA.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	exports, err := r.pairA.ExportStreams()
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 2 || !exports[0].Stream.Released || exports[1].Stream.Name != "kept" {
		t.Fatalf("exports = %+v", exports)
	}
	control, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "ctl.in", Capacity: 32, ProducerNode: 6, ConsumerNode: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	push := func(f *cfifo.FIFO) uint64 {
		r.k.RunAll()
		before := r.k.Processed
		if !f.TryWrite(1) {
			t.Fatalf("%s: write refused", f.Name())
		}
		r.k.RunAll()
		return r.k.Processed - before
	}
	base := push(control)
	for _, f := range []*cfifo.FIFO{inGone, inKept} {
		if got := push(f); got != base {
			t.Errorf("%s: a pushed word cost %d events after export, want %d (frozen pair still subscribed)", f.Name(), got, base)
		}
	}
}

// savingEngine counts the state snapshots taken of it.
type savingEngine struct {
	accel.Engine
	saves *int
}

func (e savingEngine) SaveState(dst []uint64) []uint64 {
	*e.saves++
	return e.Engine.SaveState(dst)
}

// TestRetireSlotBuildsNoExport: RetireSlot leaves the tombstone ReleaseSlot
// leaves and unsubscribes the pair from the stream's input, but never
// snapshots the stream's engines, not even when its state is the one
// swapped into the tiles.
func TestRetireSlotBuildsNoExport(t *testing.T) {
	r := newRig(t, Config{Name: "ret", EntryCost: 1, ExitCost: 1, RecordActivity: true})
	saves := 0
	s, in, _ := r.addStream(t, "a", 2, 16, 32)
	s.Engines = []accel.Engine{savingEngine{&accel.Gain{}, &saves}}
	r.pair.Start()
	r.fill(t, in, 2)
	if got := servedSince(r.pair, 0); !slices.Equal(got, []int{0}) {
		t.Fatalf("served %v, want [0]", got)
	}
	pauseRig(t, r)
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, Suspend: true}}, 1, nil); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	before := saves
	if err := r.pair.RetireSlot(0); err != nil {
		t.Fatal(err)
	}
	if saves != before {
		t.Errorf("RetireSlot snapshotted the loaded engine %d times, want none", saves-before)
	}
	if tomb := r.pair.Streams()[0]; !tomb.Released || !tomb.Suspended || tomb.In != nil || tomb.Name != "a" {
		t.Fatalf("slot 0 is not a tombstone of a: %+v", tomb)
	}
	if err := r.pair.RetireSlot(0); err == nil {
		t.Error("a released slot retired twice")
	}
	control, err := newTestFIFO(r, "ctl.in", 16, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := eventsFor(r, func() { control.TryWrite(1) })
	if got := eventsFor(r, func() { in.TryWrite(1) }); got != base {
		t.Errorf("a word into the retired stream's input cost %d events, want %d (pair still subscribed)", got, base)
	}
}
