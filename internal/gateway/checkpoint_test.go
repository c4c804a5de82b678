package gateway

// Checkpointed mid-block resume and value-exact replay: the unit tests for
// the adjusted recovery path. A block of ηs samples with checkpoint interval
// K quiesces at every K-sample boundary, snapshots the chain's engine state,
// and commits the staged output — so a retry (TestCheckpointRetryReplayBounded)
// or a failover migration (TestCheckpointFailoverResidue) replays at most K
// words instead of the whole block, and with ValueExact the downstream byte
// stream is bit-identical to a fault-free run (TestValueExactRetryBitIdentical).

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/cfifo"
	"accelshare/internal/sim"
)

// feedRaw writes sequential raw words start..start+n-1 (the Gain identity
// engine reproduces them verbatim, so the output stream is checkable
// value-by-value, not just count-by-count).
func (r *rig) feedRaw(t *testing.T, f *cfifo.FIFO, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for try := 0; ; try++ {
			if f.TryWrite(sim.Word(start + i)) {
				break
			}
			if try > 1000 {
				t.Fatal("feedRaw stuck")
			}
			r.k.RunAll()
		}
	}
	r.k.RunAll()
}

// drainAll reads every word currently obtainable from the output C-FIFO.
func (r *rig) drainAll(out *cfifo.FIFO) []sim.Word {
	var got []sim.Word
	for {
		w, ok := out.TryRead()
		if !ok {
			return got
		}
		got = append(got, w)
		r.k.RunAll()
	}
}

func ckptCfg(name string, k int64, valueExact bool) Config {
	return Config{
		Name: name, EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 200,
		Recovery: Recovery{
			Enabled: true, RetryLimit: 3,
			Checkpoint: k, CheckpointCost: 5, ValueExact: valueExact,
		},
		RecordTurnarounds: true,
	}
}

// TestCheckpointCleanRun: a fault-free checkpointed block must behave like
// the plain path downstream — same words, same order, zero replay — while
// committing an engine snapshot at every interior K boundary.
func TestCheckpointCleanRun(t *testing.T) {
	r := newRig(t, ckptCfg("ck", 4, true))
	s, in, out := r.addStream(t, "s", 16, 32, 32)
	r.feedRaw(t, in, 0, 16)
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", s.Blocks)
	}
	// Interior boundaries at 4, 8, 12 (the 16-boundary is block completion).
	if r.pair.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3", r.pair.Checkpoints)
	}
	if r.pair.CheckpointCycles != 3*5 {
		t.Fatalf("checkpoint cycles = %d, want 15", r.pair.CheckpointCycles)
	}
	if s.SamplesOut != 16 {
		t.Fatalf("SamplesOut = %d, want 16", s.SamplesOut)
	}
	if got := len(s.Turnarounds); got != 1 {
		t.Fatalf("turnaround records = %d, want 1", got)
	}
	if rp := s.Turnarounds[0].Replayed; rp != 0 {
		t.Fatalf("clean block recorded %d replayed words, want 0", rp)
	}
	for i, w := range r.drainAll(out) {
		if w != sim.Word(i) {
			t.Fatalf("output word %d = %d (checkpointing altered a clean run)", i, w)
		}
	}
}

// TestCheckpointRetryReplayBounded: a transient fault in the LAST sub-block
// of a checkpointed block must replay only from the last checkpoint — the
// measured replay work is exactly one sub-block (≤ K), not the whole η.
func TestCheckpointRetryReplayBounded(t *testing.T) {
	r := newRig(t, ckptCfg("ckr", 4, true))
	s, in, out := r.addStream(t, "s", 16, 32, 32)
	// Drop the sample at absolute position 13: inside the final sub-block
	// [12,16), after three checkpoints have committed.
	s.Engines = []accel.Engine{&transientDropEngine{dropAt: 13}}
	r.feedRaw(t, in, 0, 16)
	r.pair.Start()
	r.k.Run(50_000)
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (retry should complete the block)", s.Blocks)
	}
	if s.RetryCount != 1 {
		t.Fatalf("retries = %d, want 1", s.RetryCount)
	}
	if r.pair.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3", r.pair.Checkpoints)
	}
	rec := s.Turnarounds[0]
	if rec.Retries != 1 {
		t.Fatalf("record retries = %d, want 1", rec.Retries)
	}
	// The resume replays the aborted sub-block only: 4 words (= K), where a
	// block-start retry would have replayed 16.
	if rec.Replayed != 4 {
		t.Fatalf("replayed = %d words, want 4 (one sub-block, not the full block)", rec.Replayed)
	}
	got := r.drainAll(out)
	if len(got) != 16 {
		t.Fatalf("output has %d words, want 16", len(got))
	}
	for i, w := range got {
		if w != sim.Word(i) {
			t.Fatalf("output word %d = %d (lost, duplicated or reordered by the resume)", i, w)
		}
	}
}

// glitchEngine corrupts the value of samples whose absolute lifetime
// position falls in [glitchFrom, glitchTo), then swallows the one at
// dropAt. The counter is NOT part of SaveState — it is a transient datapath
// glitch, so a replay past it processes the same inputs cleanly. First-
// attempt corrupted outputs must therefore never reach the consumer.
type glitchEngine struct {
	seen       int
	glitchFrom int
	glitchTo   int
	dropAt     int
}

func (e *glitchEngine) Process(w sim.Word, out []sim.Word) []sim.Word {
	pos := e.seen
	e.seen++
	if pos == e.dropAt {
		return out
	}
	if pos >= e.glitchFrom && pos < e.glitchTo {
		return append(out, w+1000)
	}
	return append(out, w)
}
func (e *glitchEngine) SaveState(dst []uint64) []uint64 { return dst }
func (e *glitchEngine) LoadState([]uint64) error        { return nil }
func (e *glitchEngine) StateWords() int                 { return 0 }

// TestValueExactRetryBitIdentical is the ROADMAP value-exact regression
// test: a retried block's downstream BYTE STREAM must be identical to the
// fault-free run, not just its counts. The fault corrupts two output values
// and then wedges the block, all inside one sub-block; with ValueExact the
// corrupted words sit in the staging buffer, the retry rolls them back and
// regenerates them cleanly. Without ValueExact they leak — which this test
// also pins down, as the documented gap the staging buffer closes.
func TestValueExactRetryBitIdentical(t *testing.T) {
	run := func(valueExact bool) []sim.Word {
		r := newRig(t, ckptCfg("vx", 4, valueExact))
		s, in, out := r.addStream(t, "s", 16, 32, 32)
		s.Engines = []accel.Engine{&glitchEngine{glitchFrom: 12, glitchTo: 14, dropAt: 14}}
		r.feedRaw(t, in, 0, 16)
		r.pair.Start()
		r.k.Run(50_000)
		if s.Blocks != 1 {
			t.Fatalf("valueExact=%v: blocks = %d, want 1", valueExact, s.Blocks)
		}
		if s.RetryCount != 1 {
			t.Fatalf("valueExact=%v: retries = %d, want 1", valueExact, s.RetryCount)
		}
		return r.drainAll(out)
	}
	// Fault-free twin: identity engine, same config.
	r := newRig(t, ckptCfg("ff", 4, true))
	_, in, out := r.addStream(t, "s", 16, 32, 32)
	r.feedRaw(t, in, 0, 16)
	r.pair.Start()
	r.k.RunAll()
	clean := r.drainAll(out)

	exact := run(true)
	if len(exact) != len(clean) {
		t.Fatalf("value-exact run has %d output words, fault-free has %d", len(exact), len(clean))
	}
	for i := range clean {
		if exact[i] != clean[i] {
			t.Fatalf("output word %d: value-exact retry produced %d, fault-free %d — partial first attempt leaked",
				i, exact[i], clean[i])
		}
	}

	// The contrast run documents the gap: without staging, the first
	// attempt's corrupted words were committed before the stall and the
	// consumer keeps them.
	leaky := run(false)
	same := len(leaky) == len(clean)
	if same {
		for i := range clean {
			if leaky[i] != clean[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("non-value-exact run was bit-identical — the glitch never leaked, test scenario is not exercising the staging buffer")
	}
}

// TestCheckpointFailoverResidue: freezing a checkpointed pair mid-block must
// export only the residue SINCE the last committed checkpoint (≤ K words,
// ReplayStart at the boundary), and the standby must resume mid-block from
// it — downstream stream bit-identical to an unfailed run.
func TestCheckpointFailoverResidue(t *testing.T) {
	cfgA := ckptCfg("A", 4, true)
	cfgB := ckptCfg("B", 4, true)
	r := newFailoverRig(t, cfgA, cfgB)
	s, in, out := r.addStreamA(t, "m", 16)
	r.feed(t, in, 0, 16)
	r.pairA.Start()

	// Run until two checkpoints have committed and the third sub-block is in
	// flight: the replay window is [8, …) and at most 4 words wide.
	if !r.k.RunUntil(100_000, func() bool {
		return r.pairA.Checkpoints == 2 && r.pairA.state == stStreaming && r.pairA.sent >= 1
	}) {
		t.Fatal("never reached mid-sub-block past two checkpoints")
	}
	if err := r.pairA.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	in.BeginRepoint()
	r.k.Run(r.k.Now() + 50) // settle

	exports, err := r.pairA.ExportStreams()
	if err != nil {
		t.Fatal(err)
	}
	e := exports[0]
	if e.ReplayStart != 8 {
		t.Fatalf("ReplayStart = %d, want 8 (the last committed checkpoint)", e.ReplayStart)
	}
	if len(e.Replay) == 0 || len(e.Replay) > 4 {
		t.Fatalf("replay residue = %d words, want 1..4 (bounded by K)", len(e.Replay))
	}
	// Value-exact: everything past the checkpoint was staged and rolled
	// back, so the consumer's watermark is exactly the checkpoint boundary.
	if e.Committed != 8 {
		t.Fatalf("Committed = %d, want 8", e.Committed)
	}

	in.RepointConsumer(3)
	out.RepointProducer(5)
	r.pairB.Start()
	imported := false
	err = r.pairB.RequestPause(func() {
		if _, err := r.pairB.ImportStream(e); err != nil {
			t.Errorf("import: %v", err)
			return
		}
		imported = true
		r.pairB.Resume()
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if !imported {
		t.Fatal("pause/import never completed")
	}
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (migrated block must complete on the standby)", s.Blocks)
	}
	// The standby resumed at 8, so its replay work is the residue only.
	if rec := s.Turnarounds[len(s.Turnarounds)-1]; rec.Replayed != int64(len(e.Replay)) {
		t.Fatalf("standby replayed %d words, want the %d-word residue", rec.Replayed, len(e.Replay))
	}
	for want := 0; want < 16; want++ {
		w, ok := out.TryRead()
		if !ok {
			t.Fatalf("output ended at word %d of 16", want)
		}
		if w != sim.Word(want) {
			t.Fatalf("output word %d = %d (migration lost, duplicated or altered a sample)", want, w)
		}
		r.k.RunAll()
	}
	if _, ok := out.TryRead(); ok {
		t.Fatal("extra output word beyond the 16 fed")
	}
}

// TestCheckpointRoundsToDecimation: K = 3 on a decimate-by-4 stream must
// quiesce at input multiples of 4 (K rounded up), so every boundary maps to
// an exact output position.
func TestCheckpointRoundsToDecimation(t *testing.T) {
	r := newRig(t, ckptCfg("ckd", 3, true))
	in, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "d.in", Capacity: 32, ProducerNode: 3, ConsumerNode: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "d.out", Capacity: 32, ProducerNode: 2, ConsumerNode: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cic, err := enginetest.NewCIC(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := &Stream{
		Name: "d", Block: 16, OutBlock: 4, Reconfig: 10,
		In: in, Out: out,
		Engines: []accel.Engine{cic},
	}
	if err := r.pair.AddStream(s); err != nil {
		t.Fatal(err)
	}
	r.feedRaw(t, in, 0, 16)
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", s.Blocks)
	}
	// K=3 rounds up to 4: interior boundaries at 4, 8, 12.
	if r.pair.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3 (K rounded up to the decimation)", r.pair.Checkpoints)
	}
	if s.SamplesOut != 4 {
		t.Fatalf("SamplesOut = %d, want 4", s.SamplesOut)
	}
}
