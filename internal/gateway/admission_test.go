package gateway

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
)

// newTestFIFO builds a C-FIFO on the rig's ring for live-attach tests.
func newTestFIFO(r *rig, name string, capacity, prod, cons int) (*cfifo.FIFO, error) {
	return cfifo.New(r.k, r.net, cfifo.Config{
		Name: name, Capacity: capacity,
		ProducerNode: prod, ConsumerNode: cons,
	})
}

// TestPauseDrainsToBlockBoundary: a pause requested while a block is in
// flight must let that block finish (the pipeline-idle invariant), then
// hold arbitration; Resume picks the next block up where it left off.
func TestPauseDrainsToBlockBoundary(t *testing.T) {
	r := newRig(t, Config{Name: "pd", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed})
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	r.fill(t, in, 8) // two blocks
	r.pair.Start()
	// Step until block 0 is mid-streaming, so the pause races an in-flight
	// block rather than landing on an idle pipeline.
	for i := 0; s.SamplesIn == 0 && i < 10_000; i++ {
		r.k.Step()
	}
	if s.SamplesIn == 0 {
		t.Fatal("block 0 never started streaming")
	}
	if s.Blocks != 0 {
		t.Fatalf("block finished before the pause could race it (blocks=%d)", s.Blocks)
	}
	paused := false
	if err := r.pair.RequestPause(func() { paused = true }); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if !paused || !r.pair.Paused() {
		t.Fatalf("pause did not land: cb=%v paused=%v", paused, r.pair.Paused())
	}
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d at pause, want 1 (in-flight block runs to completion, next must not start)", s.Blocks)
	}
	// Holding: nothing else runs while paused.
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d while paused", s.Blocks)
	}
	r.pair.Resume()
	r.k.RunAll()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d after resume, want 2", s.Blocks)
	}
}

func TestRequestPauseValidation(t *testing.T) {
	r := newRig(t, Config{Name: "pv", EntryCost: 1, ExitCost: 1})
	r.addStream(t, "s", 4, 16, 16)
	r.pair.Start()
	if err := r.pair.RequestPause(nil); err == nil {
		t.Error("nil pause callback accepted")
	}
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	if err := r.pair.RequestPause(func() {}); err == nil {
		t.Error("second pause accepted while one is pending")
	}
	r.k.RunAll()
	if !r.pair.Paused() {
		t.Fatal("pause did not land")
	}
	if err := r.pair.RequestPause(func() {}); err == nil {
		t.Error("pause accepted while already paused")
	}
}

// TestApplySlotsValidation: ApplySlots must refuse to run unpaused and must
// reject any invalid update up front, leaving every slot untouched.
func TestApplySlotsValidation(t *testing.T) {
	r := newRig(t, Config{Name: "av", EntryCost: 1, ExitCost: 1})
	s, _, _ := r.addStream(t, "s", 4, 8, 8)
	r.pair.Start()
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, SetBlock: 8}}, 1, nil); err == nil {
		t.Error("ApplySlots accepted on an unpaused pair")
	}
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 5}}, 1, nil); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, SetBlock: 100}}, 1, nil); err == nil {
		t.Error("block larger than the input FIFO accepted")
	}
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, SetOutBlock: 100}}, 1, nil); err == nil {
		t.Error("out-block larger than the output FIFO accepted")
	}
	if s.Block != 4 || s.OutBlock != 4 {
		t.Fatalf("rejected updates mutated the slot: block=%d out=%d", s.Block, s.OutBlock)
	}
}

// TestApplySlotsReprogramsAndCharges: a valid transaction reprograms ηs,
// charges perSlotCost per touched slot on the configuration bus, and the
// stream then runs with its new block size.
func TestApplySlotsReprogramsAndCharges(t *testing.T) {
	r := newRig(t, Config{Name: "ar", EntryCost: 1, ExitCost: 1, Mode: ReconfigFixed})
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	r.fill(t, in, 8)
	r.pair.Start()
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err) // lands before the first block: arbitration never starts
	}
	r.k.RunAll()
	done := false
	err := r.pair.ApplySlots([]SlotUpdate{
		{Stream: 0, SetBlock: 8, SetOutBlock: 8},
	}, 10, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if !done {
		t.Fatal("ApplySlots completion callback never ran")
	}
	if r.pair.SlotCycles != 10 {
		t.Errorf("SlotCycles = %d, want 10 (1 slot x 10 cycles)", r.pair.SlotCycles)
	}
	if s.Block != 8 || s.OutBlock != 8 {
		t.Fatalf("slot not reprogrammed: block=%d out=%d", s.Block, s.OutBlock)
	}
	r.pair.Resume()
	r.k.RunAll()
	if s.Blocks != 1 || s.SamplesIn != 8 {
		t.Fatalf("blocks=%d in=%d, want one 8-sample block", s.Blocks, s.SamplesIn)
	}
}

// TestSuspendedSlotNotServed: a suspended slot is skipped by arbitration
// (its samples buffer in the input C-FIFO) until an ApplySlots transaction
// activates it.
func TestSuspendedSlotNotServed(t *testing.T) {
	r := newRig(t, Config{Name: "su", EntryCost: 1, ExitCost: 1})
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	s.Suspended = true
	r.fill(t, in, 8)
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 0 {
		t.Fatalf("suspended stream served %d blocks", s.Blocks)
	}
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, Activate: true}}, 1, func() { r.pair.Resume() }); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d after activation, want 2", s.Blocks)
	}
}

// TestAddStreamLiveRequiresPause: growing the slot table is only legal on
// a drained pair; once added (suspended) and activated, the new stream is
// served alongside the incumbent.
func TestAddStreamLiveRequiresPause(t *testing.T) {
	r := newRig(t, Config{Name: "al", EntryCost: 1, ExitCost: 1})
	sa, ina, _ := r.addStream(t, "a", 4, 32, 32)
	r.fill(t, ina, 8)
	r.pair.Start()
	r.k.RunAll()
	if sa.Blocks != 2 {
		t.Fatalf("incumbent blocks = %d", sa.Blocks)
	}

	mk := func() *Stream {
		in, err := newTestFIFO(r, "b.in", 32, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := newTestFIFO(r, "b.out", 32, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		return &Stream{
			Name: "b", Block: 4, OutBlock: 4, In: in, Out: out,
			Engines:   []accel.Engine{&accel.Gain{}},
			Suspended: true,
		}
	}
	sb := mk()
	if _, err := r.pair.AddStreamLive(sb); err == nil {
		t.Fatal("AddStreamLive accepted on an unpaused pair")
	}
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	idx, err := r.pair.AddStreamLive(sb)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("new slot index = %d, want 1", idx)
	}
	r.fill(t, sb.In, 4)
	if err := r.pair.ApplySlots([]SlotUpdate{{Stream: idx, Activate: true}}, 1, func() { r.pair.Resume() }); err != nil {
		t.Fatal(err)
	}
	r.fill(t, ina, 4)
	r.k.RunAll()
	if sa.Blocks != 3 || sb.Blocks != 1 {
		t.Fatalf("blocks a=%d b=%d, want 3/1", sa.Blocks, sb.Blocks)
	}
}

// TestCanaryPassClearsProbation: a quarantined stream readmitted with
// Probation whose canary block completes cleanly reports ok=true and
// rejoins arbitration for good.
func TestCanaryPassClearsProbation(t *testing.T) {
	cfg := Config{
		Name: "cp", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 200,
		Recovery:     Recovery{Enabled: true, RetryLimit: 2},
	}
	r := newRig(t, cfg)
	s, in, _ := r.addStream(t, "s", 4, 32, 32)
	s.Engines = []accel.Engine{&lossyEngine{dropEvery: 3}} // permanent fault
	var canary []bool
	var quarantines []int
	r.pair.SetCanaryHook(func(_ int, ok bool) { canary = append(canary, ok) })
	r.pair.SetQuarantineObserver(func(i int) { quarantines = append(quarantines, i) })
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.Run(50_000)
	if !s.Quarantined {
		t.Fatal("faulty stream not quarantined")
	}
	if len(quarantines) != 1 || quarantines[0] != 0 {
		t.Fatalf("quarantine observer calls = %v", quarantines)
	}
	// Operator repairs the engine, then readmits on probation.
	s.Engines = []accel.Engine{&accel.Gain{}}
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, Unquarantine: true, Probation: true}},
		1, func() { r.pair.Resume() })
	if err != nil {
		t.Fatal(err)
	}
	r.fill(t, in, 4) // the canary block's input (the original was flushed)
	r.k.Run(100_000)
	if len(canary) != 1 || !canary[0] {
		t.Fatalf("canary outcomes = %v, want [true]", canary)
	}
	if s.Probation || s.Quarantined {
		t.Fatalf("probation=%v quarantined=%v after clean canary", s.Probation, s.Quarantined)
	}
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (the canary)", s.Blocks)
	}
	// Still in arbitration: a second block flows normally.
	r.fill(t, in, 4)
	r.k.RunAll()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d after canary, want 2", s.Blocks)
	}
}

// TestCanaryFailRequarantinesImmediately: a canary stall gets no retry
// budget — one strike and the stream is back in quarantine, with the hook
// reporting ok=false.
func TestCanaryFailRequarantinesImmediately(t *testing.T) {
	cfg := Config{
		Name: "cf", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 200,
		Recovery:     Recovery{Enabled: true, RetryLimit: 2},
	}
	r := newRig(t, cfg)
	s, in, _ := r.addStream(t, "s", 4, 32, 32)
	s.Engines = []accel.Engine{&lossyEngine{dropEvery: 3}}
	var canary []bool
	r.pair.SetCanaryHook(func(_ int, ok bool) { canary = append(canary, ok) })
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.Run(50_000)
	if !s.Quarantined {
		t.Fatal("faulty stream not quarantined")
	}
	retriesBefore := s.RetryCount
	// Readmit WITHOUT repairing: the canary must stall and re-quarantine.
	if err := r.pair.RequestPause(func() {}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	err := r.pair.ApplySlots([]SlotUpdate{{Stream: 0, Unquarantine: true, Probation: true}},
		1, func() { r.pair.Resume() })
	if err != nil {
		t.Fatal(err)
	}
	r.fill(t, in, 4) // the canary block's input (the original was flushed)
	r.k.Run(100_000)
	if len(canary) != 1 || canary[0] {
		t.Fatalf("canary outcomes = %v, want [false]", canary)
	}
	if !s.Quarantined || s.Probation {
		t.Fatalf("quarantined=%v probation=%v after failed canary", s.Quarantined, s.Probation)
	}
	if s.RetryCount != retriesBefore {
		t.Fatalf("canary consumed %d retries, want 0", s.RetryCount-retriesBefore)
	}
	if s.Blocks != 0 {
		t.Errorf("failed canary counted %d completed blocks", s.Blocks)
	}
}

// TestSnapshotMirrorsCounters: the exported snapshot must agree with the
// per-stream fields it replaces.
func TestSnapshotMirrorsCounters(t *testing.T) {
	r := newRig(t, Config{Name: "sn", EntryCost: 1, ExitCost: 1})
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	r.fill(t, in, 8)
	r.pair.Start()
	r.k.RunAll()
	snaps := r.pair.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot length = %d", len(snaps))
	}
	got := snaps[0]
	if got.Name != s.Name || got.Block != s.Block || got.OutBlock != s.OutBlock ||
		got.Blocks != s.Blocks || got.SamplesIn != s.SamplesIn || got.SamplesOut != s.SamplesOut ||
		got.Stalls != s.StallCount || got.Retries != s.RetryCount ||
		got.Quarantined != s.Quarantined || got.Suspended != s.Suspended ||
		got.Probation != s.Probation || got.MaxTurnaround != s.MaxTurnaround {
		t.Fatalf("snapshot %+v disagrees with stream fields", got)
	}
}
