package gateway

import (
	"fmt"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/cfifo"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// rig is a hand-wired single-accelerator platform: node 0 = entry, node 1 =
// accelerator, node 2 = exit, node 3 = source tile, node 4 = sink tile.
type rig struct {
	k     *sim.Kernel
	net   *ring.Dual
	tile  *accel.Tile
	entry *accel.Link
	pair  *Pair
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tile := accel.NewTile("acc", k, 1, 2)
	entryLink := accel.NewLink("e->a", k, net, 0, 1, tile.In())
	exitNI := sim.NewQueue("exit.ni", 2)
	tile.SetDownstream(accel.NewLink("a->x", k, net, 1, 2, exitNI))
	cfg.EntryNode, cfg.ExitNode = 0, 2
	pair, err := NewPair(k, net, cfg, []*accel.Tile{tile}, entryLink, exitNI)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, net: net, tile: tile, entry: entryLink, pair: pair}
}

func (r *rig) addStream(t *testing.T, name string, block int64, inCap, outCap int) (*Stream, *cfifo.FIFO, *cfifo.FIFO) {
	t.Helper()
	in, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: name + ".in", Capacity: inCap,
		ProducerNode: 3, ConsumerNode: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: name + ".out", Capacity: outCap,
		ProducerNode: 2, ConsumerNode: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &Stream{
		Name: name, Block: block, OutBlock: block, Reconfig: 10,
		In: in, Out: out,
		Engines: []accel.Engine{&accel.Gain{}},
	}
	if err := r.pair.AddStream(s); err != nil {
		t.Fatal(err)
	}
	return s, in, out
}

func (r *rig) fill(t *testing.T, f *cfifo.FIFO, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for try := 0; ; try++ {
			if f.TryWrite(sim.Word(sim.PackIQ(int32(i), 0))) {
				break
			}
			if try > 1000 {
				t.Fatal("fill stuck")
			}
			r.k.RunAll()
		}
	}
	r.k.RunAll()
}

func TestAddStreamValidation(t *testing.T) {
	r := newRig(t, Config{Name: "v", EntryCost: 1, ExitCost: 1})
	in, _ := cfifo.New(r.k, r.net, cfifo.Config{Name: "i", Capacity: 4, ProducerNode: 3, ConsumerNode: 0})
	out, _ := cfifo.New(r.k, r.net, cfifo.Config{Name: "o", Capacity: 4, ProducerNode: 2, ConsumerNode: 4})
	base := Stream{Name: "s", Block: 4, OutBlock: 4, In: in, Out: out, Engines: []accel.Engine{&accel.Gain{}}}

	s := base
	s.Block = 0
	if err := r.pair.AddStream(&s); err == nil {
		t.Error("zero block accepted")
	}
	s = base
	s.OutBlock = 0
	if err := r.pair.AddStream(&s); err == nil {
		t.Error("zero out-block accepted")
	}
	s = base
	s.Engines = nil
	if err := r.pair.AddStream(&s); err == nil {
		t.Error("engine count mismatch accepted")
	}
	s = base
	s.Block = 8 // > input capacity 4
	s.OutBlock = 8
	if err := r.pair.AddStream(&s); err == nil {
		t.Error("block larger than input FIFO accepted")
	}
	s = base
	s.OutBlock = 8 // > output capacity 4
	if err := r.pair.AddStream(&s); err == nil {
		t.Error("out-block larger than output FIFO accepted")
	}
}

func TestPairRequiresTiles(t *testing.T) {
	k := sim.NewKernel()
	net, _ := ring.NewDual(k, 3, 1)
	if _, err := NewPair(k, net, Config{Name: "x"}, nil, nil, nil); err == nil {
		t.Fatal("tile-less pair accepted")
	}
}

func TestSingleBlockFlow(t *testing.T) {
	r := newRig(t, Config{Name: "f", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed})
	s, in, out := r.addStream(t, "s", 4, 8, 8)
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d", s.Blocks)
	}
	if s.SamplesIn != 4 || s.SamplesOut != 4 {
		t.Fatalf("in=%d out=%d", s.SamplesIn, s.SamplesOut)
	}
	if out.Len() != 4 {
		t.Fatalf("output FIFO holds %d", out.Len())
	}
}

func TestGatewayWaitsForFullBlock(t *testing.T) {
	r := newRig(t, Config{Name: "w", EntryCost: 1, ExitCost: 1})
	s, in, _ := r.addStream(t, "s", 4, 8, 8)
	r.fill(t, in, 3) // one short of a block
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 0 {
		t.Fatal("gateway started with a partial block")
	}
	r.fill(t, in, 1)
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d after completing the block", s.Blocks)
	}
}

func TestGatewayWaitsForOutputSpace(t *testing.T) {
	r := newRig(t, Config{Name: "sp", EntryCost: 1, ExitCost: 1})
	s, in, out := r.addStream(t, "s", 4, 16, 4)
	// The first block fills the 4-word output FIFO, which the sink does not
	// drain; the second block's input waits in the input FIFO. Each run is
	// bounded: a gateway that starts a block without room for its output
	// stalls inside the chain and never lets the kernel drain.
	const h = 10_000 // cycles, far longer than one block's service here
	r.fill(t, in, 8)
	r.pair.Start()
	r.k.Run(r.k.Now() + h)
	if s.Blocks != 1 {
		t.Fatalf("first block should run, got %d", s.Blocks)
	}
	// Drain 3 of the 4 words: OutBlock−1 free words must not start the
	// second block (§V-G: the whole output block must fit).
	for i := 0; i < 3; i++ {
		if _, ok := out.TryRead(); !ok {
			t.Fatalf("output word %d missing", i)
		}
	}
	r.k.Run(r.k.Now() + h)
	if s.SamplesIn != 4 || in.Len() != 4 || s.Blocks != 1 {
		t.Fatalf("second block started with OutBlock−1 free output words: %d samples in, %d left, %d blocks",
			s.SamplesIn, in.Len(), s.Blocks)
	}
	if got := out.Space(); got != int(s.OutBlock)-1 {
		t.Fatalf("exit gateway sees %d free words, want %d", got, s.OutBlock-1)
	}
	// The fourth word makes room for the whole block.
	out.TryRead()
	r.k.Run(r.k.Now() + h)
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d after space freed", s.Blocks)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	r := newRig(t, Config{Name: "rr", EntryCost: 1, ExitCost: 1})
	sa, ina, outa := r.addStream(t, "a", 2, 32, 32)
	sb, inb, outb := r.addStream(t, "b", 2, 32, 32)
	r.fill(t, ina, 16)
	r.fill(t, inb, 16)
	r.pair.Start()
	r.k.RunAll()
	_ = outa
	_ = outb
	if sa.Blocks != 8 || sb.Blocks != 8 {
		t.Fatalf("blocks a=%d b=%d, want 8/8", sa.Blocks, sb.Blocks)
	}
	// With equal demand, neither stream should ever lag the other by more
	// than one block; total service alternated (checked indirectly through
	// equal totals and bounded turnaround).
	if sa.MaxTurnaround == 0 || sb.MaxTurnaround == 0 {
		t.Error("turnaround not measured")
	}
}

func TestStateIsolationBetweenStreams(t *testing.T) {
	r := newRig(t, Config{Name: "iso", EntryCost: 1, ExitCost: 1})
	sa, ina, _ := r.addStream(t, "a", 2, 8, 32)
	sb, inb, _ := r.addStream(t, "b", 2, 8, 32)
	r.fill(t, ina, 8)
	r.fill(t, inb, 4)
	r.pair.Start()
	r.k.RunAll()
	ga := sa.Engines[0].(*accel.Gain)
	gb := sb.Engines[0].(*accel.Gain)
	if ga.Count != 8 || gb.Count != 4 {
		t.Fatalf("per-stream engine counts = %d/%d, want 8/4", ga.Count, gb.Count)
	}
}

func TestReconfigChargedPerBlock(t *testing.T) {
	r := newRig(t, Config{Name: "rc", EntryCost: 1, ExitCost: 1, Mode: ReconfigFixed})
	s, in, _ := r.addStream(t, "s", 2, 16, 32)
	s.Reconfig = 100
	r.fill(t, in, 8) // 4 blocks
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 4 {
		t.Fatalf("blocks = %d", s.Blocks)
	}
	total, rec, _ := r.pair.Busy()
	if rec != 400 {
		t.Errorf("reconfig cycles = %d, want 400", rec)
	}
	if total == 0 {
		t.Error("no elapsed time")
	}
}

func TestBusyAccounting(t *testing.T) {
	r := newRig(t, Config{Name: "b", EntryCost: 3, ExitCost: 1, Mode: ReconfigFixed})
	s, in, _ := r.addStream(t, "s", 4, 16, 32)
	s.Reconfig = 50
	r.fill(t, in, 8)
	r.pair.Start()
	r.k.RunAll()
	_, rec, str := r.pair.Busy()
	if rec != 100 { // 2 blocks x 50
		t.Errorf("reconfig = %d", rec)
	}
	if str != 24 { // 8 samples x 3 cycles
		t.Errorf("streaming = %d", str)
	}
}

func TestOutputTimestampRecording(t *testing.T) {
	r := newRig(t, Config{Name: "ts", EntryCost: 1, ExitCost: 1, RecordOutputTimes: true})
	s, in, _ := r.addStream(t, "s", 4, 8, 32)
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.RunAll()
	if len(s.OutTimes) != 4 {
		t.Fatalf("timestamps = %d", len(s.OutTimes))
	}
	for i := 1; i < len(s.OutTimes); i++ {
		if s.OutTimes[i] < s.OutTimes[i-1] {
			t.Fatal("timestamps not monotone")
		}
	}
}

func TestDisableSpaceCheckDirect(t *testing.T) {
	r := newRig(t, Config{Name: "nsc", EntryCost: 1, ExitCost: 1, DisableSpaceCheck: true})
	s, in, _ := r.addStream(t, "s", 4, 16, 4)
	// Without the check, the gateway starts a second block even though the
	// output FIFO (capacity 4) is still full from the first.
	r.fill(t, in, 8)
	r.pair.Start()
	// Run a bounded horizon: the second block stalls at the exit gateway.
	r.k.Run(2_000)
	if s.Blocks != 1 {
		t.Fatalf("blocks completed = %d, want 1 (second block stuck mid-chain)", s.Blocks)
	}
	if s.SamplesIn < 5 {
		t.Errorf("second block never started streaming: in=%d", s.SamplesIn)
	}
}

func TestFixedPriorityArbiterDirect(t *testing.T) {
	r := newRig(t, Config{Name: "fp", EntryCost: 1, ExitCost: 1, Arbiter: FixedPriority})
	sa, ina, _ := r.addStream(t, "hi", 2, 32, 64)
	sb, inb, _ := r.addStream(t, "lo", 2, 32, 64)
	r.fill(t, ina, 32)
	r.fill(t, inb, 8)
	r.pair.Start()
	r.k.RunAll()
	// All of hi's 16 blocks run before lo gets a turn... both eventually
	// complete since hi's input is finite.
	if sa.Blocks != 16 || sb.Blocks != 4 {
		t.Fatalf("blocks = %d/%d", sa.Blocks, sb.Blocks)
	}
	if r.pair.PendingWait(0) != 0 || r.pair.PendingWait(1) != 0 {
		t.Error("pending wait should be zero after drain")
	}
}

func TestPendingWaitWhileStarved(t *testing.T) {
	r := newRig(t, Config{Name: "pw", EntryCost: 4, ExitCost: 1, Arbiter: FixedPriority})
	_, ina, outa := r.addStream(t, "hi", 2, 64, 4)
	sb, inb, _ := r.addStream(t, "lo", 2, 32, 64)
	_ = outa
	r.fill(t, ina, 64) // saturate hi
	r.fill(t, inb, 2)
	r.pair.Start()
	r.k.Run(5_000)
	if sb.Blocks != 0 && r.pair.PendingWait(1) == 0 {
		// Either lo was served (possible when hi briefly lacks output
		// space) or it must be visibly waiting.
		t.Logf("lo served %d blocks", sb.Blocks)
	}
	if sb.Blocks == 0 && r.pair.PendingWait(1) == 0 {
		t.Error("starved stream shows no pending wait")
	}
}

func TestReconfigPerWordDirect(t *testing.T) {
	r := newRig(t, Config{Name: "pword", EntryCost: 1, ExitCost: 1, Mode: ReconfigPerWord, BusBase: 10, BusPerWord: 7})
	s, in, _ := r.addStream(t, "s", 2, 16, 32)
	r.fill(t, in, 4) // two blocks
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d", s.Blocks)
	}
	_, rec, _ := r.pair.Busy()
	// Block 1: no previous stream -> load only (1 gain word): 2*10 + 1*7 = 27.
	// Block 2: save prev (1 word) + load (1 word): 2*10 + 2*7 = 34.
	if rec != 27+34 {
		t.Errorf("reconfig cycles = %d, want 61", rec)
	}
}

func TestStartIgnoresEarlyWakeups(t *testing.T) {
	r := newRig(t, Config{Name: "sw", EntryCost: 1, ExitCost: 1})
	s, in, _ := r.addStream(t, "s", 2, 16, 32)
	r.fill(t, in, 4)
	r.k.RunAll() // wakeups delivered before Start
	if s.Blocks != 0 {
		t.Fatal("gateway ran before Start")
	}
	r.pair.Start()
	r.k.RunAll()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d after Start", s.Blocks)
	}
}

func TestStreamsAccessor(t *testing.T) {
	r := newRig(t, Config{Name: "acc", EntryCost: 1, ExitCost: 1})
	r.addStream(t, "x", 2, 8, 8)
	if len(r.pair.Streams()) != 1 || r.pair.Streams()[0].Name != "x" {
		t.Fatalf("Streams() = %+v", r.pair.Streams())
	}
	if len(r.pair.Tiles()) != 1 {
		t.Fatalf("Tiles() = %d", len(r.pair.Tiles()))
	}
}

// lossyEngine drops every dropEvery-th sample — an injected accelerator
// fault that breaks the exit gateway's block accounting.
type lossyEngine struct {
	n         int
	dropEvery int
}

func (l *lossyEngine) Process(w sim.Word, out []sim.Word) []sim.Word {
	l.n++
	if l.dropEvery > 0 && l.n%l.dropEvery == 0 {
		return out // swallow the sample
	}
	return append(out, w)
}
func (l *lossyEngine) SaveState(dst []uint64) []uint64 { return append(dst, uint64(l.n)) }
func (l *lossyEngine) LoadState(s []uint64) error {
	if len(s) != 1 {
		return errBadState
	}
	l.n = int(s[0])
	return nil
}
func (l *lossyEngine) StateWords() int { return 1 }

// TestTestEnginesSnapshotContract holds the fault-injecting test engines to
// the snapshot contract the pair's per-slot state buffers rely on; their
// drop and glitch positions lie past the words the check feeds.
func TestTestEnginesSnapshotContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    accel.Engine
	}{
		{"lossy", &lossyEngine{dropEvery: 3}},
		{"transientDrop", &transientDropEngine{dropAt: 1000}},
		{"glitch", &glitchEngine{glitchFrom: 1000, glitchTo: 1001, dropAt: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) { enginetest.CheckSnapshot(t, tc.e) })
	}
}

var errBadState = fmt.Errorf("bad state")

func TestDrainWatchdogDetectsSampleLoss(t *testing.T) {
	stalled := make([]int, 0, 1)
	cfg := Config{
		Name: "wd", EntryCost: 2, ExitCost: 1,
		DrainTimeout: 200,
	}
	r := newRig(t, cfg)
	r.pair.SetStallObserver(func(s int) { stalled = append(stalled, s) })
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	s.Engines = []accel.Engine{&lossyEngine{dropEvery: 3}}
	s.Block, s.OutBlock = 4, 4 // but the engine will deliver only 3
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.Run(10_000)
	if r.pair.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", r.pair.Stalls)
	}
	if len(stalled) != 1 || stalled[0] != 0 {
		t.Fatalf("stall observer calls = %v", stalled)
	}
	if s.Blocks != 0 {
		t.Errorf("lossy block counted as complete")
	}
}

func TestDrainWatchdogQuietOnHealthyChain(t *testing.T) {
	stalls := 0
	cfg := Config{
		Name: "wd2", EntryCost: 2, ExitCost: 1,
		DrainTimeout: 200,
	}
	r := newRig(t, cfg)
	r.pair.SetStallObserver(func(int) { stalls++ })
	s, in, out := r.addStream(t, "s", 4, 32, 32)
	r.fill(t, in, 16) // 4 healthy blocks
	r.pair.Start()
	drain := sim.NewWaker(r.k, func() {
		for {
			if _, ok := out.TryRead(); !ok {
				return
			}
		}
	})
	out.SubscribeData(drain)
	r.k.RunAll()
	if s.Blocks != 4 {
		t.Fatalf("blocks = %d", s.Blocks)
	}
	if stalls != 0 || r.pair.Stalls != 0 {
		t.Fatalf("false stall alarms: %d", stalls)
	}
}

func TestDrainWatchdogDisabledByDefault(t *testing.T) {
	r := newRig(t, Config{Name: "wd3", EntryCost: 2, ExitCost: 1})
	s, in, _ := r.addStream(t, "s", 4, 16, 16)
	s.Engines = []accel.Engine{&lossyEngine{dropEvery: 3}}
	r.fill(t, in, 4)
	r.pair.Start()
	r.k.Run(10_000)
	if r.pair.Stalls != 0 {
		t.Fatalf("watchdog fired while disabled")
	}
}
