package gateway

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/sim"
)

// transientDropEngine swallows exactly one sample, identified by its
// absolute position in the engine's lifetime. The absolute counter is
// deliberately NOT part of SaveState: it models a transient glitch in the
// datapath, not stream state, so a block retry replays past it cleanly.
type transientDropEngine struct {
	seen   int
	dropAt int
}

func (e *transientDropEngine) Process(w sim.Word, out []sim.Word) []sim.Word {
	e.seen++
	if e.seen-1 == e.dropAt {
		return out
	}
	return append(out, w)
}
func (e *transientDropEngine) SaveState(dst []uint64) []uint64 { return dst }
func (e *transientDropEngine) LoadState([]uint64) error        { return nil }
func (e *transientDropEngine) StateWords() int                 { return 0 }

// TestWatchdogCoversStreamingPhase wedges the entry link mid-streaming:
// the fault hits before the last sample of the block is even issued, so a
// drain-only watchdog would never see it. The progress watchdog must.
func TestWatchdogCoversStreamingPhase(t *testing.T) {
	var stalled []int
	cfg := Config{
		Name: "wds", EntryCost: 2, ExitCost: 1,
		DrainTimeout: 200,
	}
	r := newRig(t, cfg)
	r.pair.SetStallObserver(func(s int) { stalled = append(stalled, s) })
	s, in, _ := r.addStream(t, "s", 8, 16, 16)
	r.fill(t, in, 8)
	// Wedge the entry link permanently after the block has started
	// streaming but well before its last sample.
	r.k.Schedule(20, func() { r.entry.WedgeFor(0) })
	r.pair.Start()
	r.k.Run(10_000)
	if r.pair.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", r.pair.Stalls)
	}
	if len(stalled) != 1 || stalled[0] != 0 {
		t.Fatalf("stall observer calls = %v", stalled)
	}
	if s.Blocks != 0 {
		t.Errorf("wedged block counted as complete")
	}
	if s.SamplesIn >= 8 {
		t.Errorf("all %d samples issued despite the wedge — fault hit too late", s.SamplesIn)
	}
}

// TestWatchdogReconfigExceedsWindow: the paper's Rs (4100 cycles) is far
// larger than a c0-scaled progress window. A reconfiguration legitimately
// occupying the bus for longer than DrainTimeout must not be declared a
// stall — bus occupancy counts as progress.
func TestWatchdogReconfigExceedsWindow(t *testing.T) {
	cfg := Config{
		Name: "wdr", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 100,
	}
	r := newRig(t, cfg)
	r.pair.SetStallObserver(func(int) { t.Error("stall declared during a healthy long reconfiguration") })
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	s.Reconfig = 2000 // 20x the watchdog window
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d", s.Blocks)
	}
	if r.pair.Stalls != 0 {
		t.Fatalf("stalls = %d", r.pair.Stalls)
	}
}

// TestWatchdogDisarmedAcrossBlocks is the disarm regression: with the
// watchdog window roughly equal to one block's duration and blocks running
// back-to-back, a timer armed for block N expires while block N+1 is in
// flight. The epoch binding must make it a no-op — zero spurious stalls.
func TestWatchdogDisarmedAcrossBlocks(t *testing.T) {
	cfg := Config{
		Name: "wdd", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 30, // ≈ one block: 10 reconfig + 8 streaming + drain/notify
	}
	r := newRig(t, cfg)
	r.pair.SetStallObserver(func(s int) { t.Errorf("spurious stall on stream %d", s) })
	s, in, _ := r.addStream(t, "s", 4, 64, 64)
	r.fill(t, in, 32) // 8 back-to-back blocks
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 8 {
		t.Fatalf("blocks = %d, want 8", s.Blocks)
	}
	if r.pair.Stalls != 0 {
		t.Fatalf("stalls = %d, want 0", r.pair.Stalls)
	}
}

// TestWatchdogBlamesCloggedStream is the A1-ablation × watchdog
// interaction: with DisableSpaceCheck the exit gateway can block mid-block
// on a slow consumer, head-of-line blocking every stream behind it. The
// watchdog must attribute the stall to the stream whose consumer clogged
// the chain, not to an innocent bystander.
func TestWatchdogBlamesCloggedStream(t *testing.T) {
	var stalled []int
	cfg := Config{
		Name: "wdc", EntryCost: 1, ExitCost: 1,
		DisableSpaceCheck: true,
		DrainTimeout:      200,
	}
	r := newRig(t, cfg)
	r.pair.SetStallObserver(func(s int) { stalled = append(stalled, s) })
	// Stream "clog": tiny output FIFO that nobody drains. Stream "ok":
	// ample output space.
	sClog, inClog, _ := r.addStream(t, "clog", 4, 16, 4)
	sOK, inOK, _ := r.addStream(t, "ok", 4, 16, 32)
	r.fill(t, inClog, 8) // two blocks; the second wedges at the exit
	r.fill(t, inOK, 8)
	r.pair.Start()
	r.k.Run(10_000)
	if r.pair.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", r.pair.Stalls)
	}
	if len(stalled) != 1 || stalled[0] != 0 {
		t.Fatalf("stall observer blamed %v, want the clogged stream (0)", stalled)
	}
	if sClog.StallCount != 1 || sOK.StallCount != 0 {
		t.Fatalf("per-stream stalls clog=%d ok=%d, want 1/0", sClog.StallCount, sOK.StallCount)
	}
	// Head-of-line: the innocent stream is stuck behind the wedged block.
	if sOK.Blocks == 2 {
		t.Errorf("innocent stream ran to completion — no head-of-line blocking observed")
	}
}

// TestRecoveryRetriesTransientFault: a one-shot sample drop stalls the
// block; flush + retry replays it past the glitch and the block completes.
// The consumer must see each block position exactly once.
func TestRecoveryRetriesTransientFault(t *testing.T) {
	cfg := Config{
		Name: "rt", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout:   200,
		Recovery:       Recovery{Enabled: true, RetryLimit: 3},
		RecordActivity: true,
	}
	r := newRig(t, cfg)
	s, in, out := r.addStream(t, "s", 4, 16, 16)
	s.Engines = []accel.Engine{&transientDropEngine{dropAt: 2}}
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.Run(20_000)
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (retry should complete the block)", s.Blocks)
	}
	if s.StallCount != 1 || s.RetryCount != 1 {
		t.Fatalf("stalls=%d retries=%d, want 1/1", s.StallCount, s.RetryCount)
	}
	if s.Quarantined || r.pair.Quarantines != 0 {
		t.Fatal("transient fault led to quarantine")
	}
	if out.Len() != 4 {
		t.Fatalf("output FIFO holds %d words, want 4 (no duplicates, no gaps)", out.Len())
	}
	if s.SamplesOut != 4 {
		t.Fatalf("SamplesOut = %d, want 4 (replayed duplicates must be discarded)", s.SamplesOut)
	}
	flushes := 0
	for _, a := range r.pair.Activities {
		if a.Kind == ActFlush {
			flushes++
		}
	}
	if flushes != 1 {
		t.Errorf("activity trace records %d flush spans, want 1", flushes)
	}
}

// TestRecoveryQuarantinesPermanentFault: a stream whose engine loses a
// sample deterministically (loss state restored on every retry) keeps
// stalling; after RetryLimit retries it must be quarantined, and the
// surviving stream must then be served normally.
func TestRecoveryQuarantinesPermanentFault(t *testing.T) {
	var quarantined []int
	cfg := Config{
		Name: "rq", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 200,
		Recovery:     Recovery{Enabled: true, RetryLimit: 2},
	}
	r := newRig(t, cfg)
	r.pair.SetQuarantineObserver(func(s int) { quarantined = append(quarantined, s) })
	sBad, inBad, _ := r.addStream(t, "bad", 4, 16, 16)
	// lossyEngine keeps its loss counter in SaveState, so the retry's state
	// restore replays the identical loss: a permanent fault.
	sBad.Engines = []accel.Engine{&lossyEngine{dropEvery: 3}}
	sOK, inOK, _ := r.addStream(t, "ok", 4, 64, 64)
	r.fill(t, inBad, 4)
	r.fill(t, inOK, 16) // 4 blocks
	r.pair.Start()
	r.k.Run(50_000)
	if !sBad.Quarantined {
		t.Fatal("permanently faulty stream not quarantined")
	}
	// RetryLimit=2: stall #1 -> retry 1, stall #2 -> retry 2, stall #3 ->
	// quarantine.
	if sBad.StallCount != 3 || sBad.RetryCount != 2 {
		t.Fatalf("stalls=%d retries=%d, want 3/2", sBad.StallCount, sBad.RetryCount)
	}
	if r.pair.Quarantines != 1 || len(quarantined) != 1 || quarantined[0] != 0 {
		t.Fatalf("quarantines=%d callback=%v", r.pair.Quarantines, quarantined)
	}
	if sBad.Blocks != 0 {
		t.Errorf("faulty stream completed %d blocks", sBad.Blocks)
	}
	// The survivor regains the whole chain after the quarantine.
	if sOK.Blocks != 4 {
		t.Fatalf("healthy stream completed %d blocks, want 4", sOK.Blocks)
	}
	if sOK.StallCount != 0 {
		t.Errorf("healthy stream blamed for %d stalls", sOK.StallCount)
	}
	if r.pair.PendingWait(0) != 0 {
		t.Errorf("quarantined stream still reports pending wait")
	}
}

// TestRecoveryLostIdleNotification: the DropIdle fault hook swallows one
// pipeline-idle message. The entry gateway hangs in the drain phase with a
// fully delivered block; the watchdog must catch it and the retry must
// complete the block without duplicating any output.
func TestRecoveryLostIdleNotification(t *testing.T) {
	droppedOnce := false
	cfg := Config{
		Name: "ri", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 200,
		Recovery:     Recovery{Enabled: true, RetryLimit: 3},
		DropIdle: func(stream int, block uint64) bool {
			if !droppedOnce && stream == 0 && block == 0 {
				droppedOnce = true
				return true
			}
			return false
		},
	}
	r := newRig(t, cfg)
	s, in, out := r.addStream(t, "s", 4, 16, 16)
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.Run(20_000)
	if r.pair.IdleDropped != 1 {
		t.Fatalf("IdleDropped = %d, want 1", r.pair.IdleDropped)
	}
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", s.Blocks)
	}
	if s.StallCount != 1 || s.RetryCount != 1 {
		t.Fatalf("stalls=%d retries=%d, want 1/1", s.StallCount, s.RetryCount)
	}
	// The whole block was already committed before the abort; the replay's
	// outputs must all be discarded.
	if out.Len() != 4 || s.SamplesOut != 4 {
		t.Fatalf("out=%d samplesOut=%d, want 4/4 (no duplicates)", out.Len(), s.SamplesOut)
	}
}

// TestRecoveryTurnaroundRecords: RecordTurnarounds captures per-block
// latency including the retried block's inflated service time, so a test
// or campaign can check re-convergence after a disturbance.
func TestRecoveryTurnaroundRecords(t *testing.T) {
	cfg := Config{
		Name: "rr2", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout:      200,
		Recovery:          Recovery{Enabled: true, RetryLimit: 3},
		RecordTurnarounds: true,
	}
	r := newRig(t, cfg)
	s, in, _ := r.addStream(t, "s", 4, 32, 32)
	s.Engines = []accel.Engine{&transientDropEngine{dropAt: 2}}
	r.fill(t, in, 12) // 3 blocks; the first needs one retry
	r.pair.Start()
	r.k.Run(50_000)
	if s.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", s.Blocks)
	}
	if len(s.Turnarounds) != 3 {
		t.Fatalf("turnaround records = %d, want 3", len(s.Turnarounds))
	}
	if s.Turnarounds[0].Retries != 1 {
		t.Errorf("first block records %d retries, want 1", s.Turnarounds[0].Retries)
	}
	if s.Turnarounds[1].Retries != 0 || s.Turnarounds[2].Retries != 0 {
		t.Errorf("healthy blocks record retries: %+v", s.Turnarounds[1:])
	}
	// The disturbed block's service latency dwarfs the healthy ones'
	// (watchdog window + flush settle + re-reconfig + replay).
	lat := func(b BlockRecord) sim.Time { return b.Done - b.Started }
	if lat(s.Turnarounds[0]) <= lat(s.Turnarounds[1]) {
		t.Errorf("retried block latency %d not above healthy %d", lat(s.Turnarounds[0]), lat(s.Turnarounds[1]))
	}
	for _, b := range s.Turnarounds {
		if b.Done < b.Started || b.Started < b.Queued {
			t.Errorf("record ordering broken: %+v", b)
		}
	}
}
