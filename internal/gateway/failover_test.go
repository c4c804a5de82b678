package gateway

// Failover unit tests: freeze/export/import semantics in isolation, plus the
// gateway-level migration round trip on a hand-wired two-pair ring. The full
// controller-driven failover (doctor verdict, settle clamp, re-solve, bound
// accounting) is exercised in internal/mpsoc.

import (
	"reflect"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// frig is a two-pair platform on one 8-node ring: pair A = nodes 0/1/2
// (entry/accel/exit), pair B = nodes 3/4/5, source tile 6, sink tile 7.
type frig struct {
	k            *sim.Kernel
	net          *ring.Dual
	pairA, pairB *Pair
}

func newFailoverRig(t *testing.T, cfgA, cfgB Config) *frig {
	t.Helper()
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg Config, entryN, accN, exitN int) *Pair {
		tile := accel.NewTile(cfg.Name+".acc", k, 1, 2)
		entry := accel.NewLink(cfg.Name+".e->a", k, net, entryN, accN, tile.In())
		exitNI := sim.NewQueue(cfg.Name+".exit.ni", 2)
		tile.SetDownstream(accel.NewLink(cfg.Name+".a->x", k, net, accN, exitN, exitNI))
		cfg.EntryNode, cfg.ExitNode = entryN, exitN
		pair, err := NewPair(k, net, cfg, []*accel.Tile{tile}, entry, exitNI)
		if err != nil {
			t.Fatal(err)
		}
		return pair
	}
	return &frig{
		k: k, net: net,
		pairA: build(cfgA, 0, 1, 2),
		pairB: build(cfgB, 3, 4, 5),
	}
}

func (r *frig) addStreamA(t *testing.T, name string, block int64) (*Stream, *cfifo.FIFO, *cfifo.FIFO) {
	t.Helper()
	in, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: name + ".in", Capacity: 32,
		ProducerNode: 6, ConsumerNode: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: name + ".out", Capacity: 32,
		ProducerNode: 2, ConsumerNode: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &Stream{
		Name: name, Block: block, OutBlock: block, Reconfig: 10,
		In: in, Out: out,
		Engines: []accel.Engine{&accel.Gain{}},
	}
	if err := r.pairA.AddStream(s); err != nil {
		t.Fatal(err)
	}
	return s, in, out
}

// feed writes sequential words start..start+n-1 (the Gain identity engine
// reproduces them verbatim, so output contiguity proves zero loss/dup).
func (r *frig) feed(t *testing.T, f *cfifo.FIFO, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for try := 0; ; try++ {
			if f.TryWrite(sim.Word(start + i)) {
				break
			}
			if try > 1000 {
				t.Fatal("feed stuck")
			}
			r.k.RunAll()
		}
	}
	r.k.RunAll()
}

func recoveryCfg(name string) Config {
	return Config{
		Name: name, EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed,
		DrainTimeout: 200,
		Recovery:     Recovery{Enabled: true, RetryLimit: 2},
	}
}

func TestFreezeGuards(t *testing.T) {
	// Mid-block without recovery: no replay snapshot exists, freeze must
	// refuse rather than silently lose the in-flight block.
	r := newFailoverRig(t, Config{Name: "A", EntryCost: 2, ExitCost: 1, Mode: ReconfigFixed}, recoveryCfg("B"))
	s, in, _ := r.addStreamA(t, "s", 4)
	r.feed(t, in, 0, 4)
	r.pairA.Start()
	if !r.k.RunUntil(10_000, func() bool { return r.pairA.state != stIdle }) {
		t.Fatal("block never started")
	}
	if err := r.pairA.FreezeForFailover(); err == nil {
		t.Fatal("mid-block freeze without recovery accepted")
	}
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("blocks = %d", s.Blocks)
	}
	// Idle now: freeze is legal even without recovery, and terminal.
	if err := r.pairA.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	if !r.pairA.Failed() {
		t.Fatal("pair not failed after freeze")
	}
	if err := r.pairA.FreezeForFailover(); err == nil {
		t.Fatal("double freeze accepted")
	}
	// Export requires a frozen pair; import requires a paused, healthy one.
	if _, err := r.pairB.ExportStreams(); err == nil {
		t.Fatal("export from a healthy pair accepted")
	}
	exports, err := r.pairA.ExportStreams()
	if err != nil || len(exports) != 1 {
		t.Fatalf("export: %v (%d streams)", err, len(exports))
	}
	if _, err := r.pairA.ImportStream(exports[0]); err == nil {
		t.Fatal("import onto a failed pair accepted")
	}
	if _, err := r.pairB.ImportStream(exports[0]); err == nil {
		t.Fatal("import onto an unpaused pair accepted")
	}
}

// TestFailoverMigrationRoundTrip freezes pair A mid-block and migrates the
// stream to pair B exactly as the controller does: freeze → gate producer →
// settle → export → re-point C-FIFO endpoints → import on paused B → resume.
// The output sequence must be contiguous across the migration: the words the
// aborted attempt consumed are replayed, nothing is lost or duplicated.
func TestFailoverMigrationRoundTrip(t *testing.T) {
	r := newFailoverRig(t, recoveryCfg("A"), recoveryCfg("B"))
	s, in, out := r.addStreamA(t, "m", 4)
	r.feed(t, in, 0, 10) // 2.5 blocks
	r.pairA.Start()

	// Run until pair A is mid-way through its SECOND block.
	if !r.k.RunUntil(50_000, func() bool {
		return s.Blocks == 1 && r.pairA.state == stStreaming && r.pairA.fetched >= 2
	}) {
		t.Fatal("never reached mid-block-2")
	}
	consumed := r.pairA.fetched
	committed := r.pairA.exitCount

	if err := r.pairA.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	in.BeginRepoint()
	if in.TryWrite(sim.Word(99)) {
		t.Fatal("producer not gated during repoint")
	}
	r.k.Run(r.k.Now() + 50) // settle: every in-flight word/credit lands

	exports, err := r.pairA.ExportStreams()
	if err != nil {
		t.Fatal(err)
	}
	e := exports[0]
	if len(e.Replay) != consumed {
		t.Fatalf("replay %d words, aborted attempt consumed %d", len(e.Replay), consumed)
	}
	if e.Committed != committed {
		t.Fatalf("committed %d, exit had delivered %d", e.Committed, committed)
	}
	if e.Engines == nil {
		t.Fatal("no block-start engine snapshot exported")
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

	r.feed(t, in, 10, 6) // complete blocks 3 and 4
	r.k.RunAll()
	if s.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4 (1 on A + 3 on B incl. replay)", s.Blocks)
	}

	// Drain the output FIFO: the identity-engine words must be 0..15 in
	// order — any gap is a lost sample, any repeat a duplicated one.
	for want := 0; want < 16; want++ {
		w, ok := out.TryRead()
		if !ok {
			t.Fatalf("output ended at word %d of 16", want)
		}
		if w != sim.Word(want) {
			t.Fatalf("output word %d = %d (lost or duplicated sample)", want, w)
		}
		r.k.RunAll()
	}
	if _, ok := out.TryRead(); ok {
		t.Fatal("extra output word beyond the 16 fed")
	}
}

// TestImportReplayDiscardsCommitted seeds a migrated in-flight block whose
// consumer already received 2 of 4 output words: the standby must regenerate
// all 4 and emit only the last 2.
func TestImportReplayDiscardsCommitted(t *testing.T) {
	r := newFailoverRig(t, recoveryCfg("A"), recoveryCfg("B"))
	in, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "r.in", Capacity: 32, ProducerNode: 6, ConsumerNode: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cfifo.New(r.k, r.net, cfifo.Config{
		Name: "r.out", Capacity: 32, ProducerNode: 5, ConsumerNode: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &Stream{
		Name: "r", Block: 4, OutBlock: 4, Reconfig: 10,
		In: in, Out: out, Engines: []accel.Engine{&accel.Gain{}},
	}
	export := StreamExport{
		Stream:    s,
		Engines:   [][]uint64{(&accel.Gain{}).SaveState(nil)},
		Replay:    []sim.Word{40, 41, 42, 43},
		Committed: 2,
	}
	r.pairB.Start()
	err = r.pairB.RequestPause(func() {
		if _, err := r.pairB.ImportStream(export); err != nil {
			t.Errorf("import: %v", err)
		}
		r.pairB.Resume()
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunAll()
	if s.Blocks != 1 {
		t.Fatalf("replayed block did not complete: blocks = %d", s.Blocks)
	}
	for _, want := range []sim.Word{42, 43} {
		w, ok := out.TryRead()
		if !ok || w != want {
			t.Fatalf("got (%d,%v), want %d (committed words must be discarded, the rest emitted)", w, ok, want)
		}
		r.k.RunAll()
	}
	if _, ok := out.TryRead(); ok {
		t.Fatal("already-committed word emitted again (duplicate at the consumer)")
	}
}

// TestExportDeepCopies is the shallow-copy regression test: after
// ExportStreams returns, mutating the dead pair's internals must not reach
// the export (the standby owns that state now).
func TestExportDeepCopies(t *testing.T) {
	r := newFailoverRig(t, recoveryCfg("A"), recoveryCfg("B"))
	_, in, _ := r.addStreamA(t, "d", 4)
	r.feed(t, in, 0, 10)
	r.pairA.Start()
	if !r.k.RunUntil(50_000, func() bool {
		return r.pairA.state == stStreaming && r.pairA.fetched >= 2 && len(r.pairA.retryState) > 0
	}) {
		t.Fatal("never reached a mid-block state with a retry snapshot")
	}
	if err := r.pairA.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	exports, err := r.pairA.ExportStreams()
	if err != nil {
		t.Fatal(err)
	}
	e := exports[0]
	replay0, eng00 := e.Replay[0], e.Engines[0][0]
	// Scribble over the sources the export was copied from.
	r.pairA.blockBuf[0] += 1000
	r.pairA.retryState[0][0] += 1000
	if e.Replay[0] != replay0 {
		t.Fatal("export.Replay aliases the dead pair's block buffer")
	}
	if e.Engines[0][0] != eng00 {
		t.Fatal("export.Engines aliases the dead pair's retry snapshot")
	}
}

// TestSnapshotIsValueOnly locks the StreamSnapshot contract: every field is
// a value type, so a snapshot can never alias live gateway state. Anyone who
// adds a slice/map/pointer field must also add an explicit deep copy and
// update this test.
func TestSnapshotIsValueOnly(t *testing.T) {
	st := reflect.TypeOf(StreamSnapshot{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Ptr, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("StreamSnapshot.%s is a reference type (%s): Snapshot() would alias live state",
				f.Name, f.Type.Kind())
		}
	}
}
