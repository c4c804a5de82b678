package mpsoc

import (
	"testing"
	"unsafe"

	"accelshare/internal/accel"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// recycleConfig is lateOutputConfig with block records kept and two
// reserved slots to attach streams to.
func recycleConfig() MultiConfig {
	cfg := lateOutputConfig()
	cfg.Chains[0].RecordTurnarounds = true
	cfg.Chains[0].ReserveSlots = 2
	return cfg
}

// attachedSpec is a stream attached at run time: forty source words in
// blocks of eight through the passthrough engine, so its outputs are
// 0..39 and it closes five blocks.
func attachedSpec(name string, inCap, outCap int) StreamSpec {
	return StreamSpec{
		Name: name, Block: 8, Decimation: 1, Reconfig: 100,
		InCapacity: inCap, OutCapacity: outCap,
		Engines:        []accel.Engine{accel.Passthrough{}},
		SourcePeriod:   40,
		TotalInputs:    40,
		CollectOutputs: true,
	}
}

// whilePaused runs fn at chain 0's first block boundary after at, with the
// pair paused and, when suspend >= 0, that slot suspended first. The pair
// resumes once fn returns.
func whilePaused(t *testing.T, ms *MultiSystem, at sim.Time, suspend int, fn func()) {
	pair := ms.Chains[0].Pair
	ms.K.ScheduleAt(at, func() {
		err := pair.RequestPause(func() {
			done := func() { fn(); pair.Resume() }
			if suspend < 0 {
				done()
				return
			}
			if err := pair.ApplySlots([]gateway.SlotUpdate{{Stream: suspend, Suspend: true}}, 1, done); err != nil {
				t.Errorf("ApplySlots: %v", err)
			}
		})
		if err != nil {
			t.Errorf("RequestPause: %v", err)
		}
	})
}

func reclaim(t *testing.T, ms *MultiSystem, name string) {
	if err := ms.ReclaimStream(0, name); err != nil {
		t.Errorf("ReclaimStream(%s): %v", name, err)
	}
}

func attach(t *testing.T, ms *MultiSystem, ss StreamSpec) *Stream {
	st, err := ms.AttachStream(0, ss)
	if err != nil {
		t.Fatalf("AttachStream(%s): %v", ss.Name, err)
	}
	return st
}

// topSpare is the storage the next AttachStream would take.
func topSpare(t *testing.T, ms *MultiSystem) spare {
	if len(ms.spares) == 0 {
		t.Fatal("no spare storage")
	}
	return ms.spares[len(ms.spares)-1]
}

func sameArray[E any](a, b []E) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// checkRanClean fails unless st collected the words 0..39 and kept one
// block record per block, each queued at or after at.
func checkRanClean(t *testing.T, st *Stream, at sim.Time) {
	t.Helper()
	if len(st.Outputs) != 40 || !st.Contiguous() {
		t.Errorf("%s collected %d outputs (contiguous %v), want 0..39", st.Spec.Name, len(st.Outputs), st.Contiguous())
	}
	if st.GW.Blocks != 5 || len(st.GW.Turnarounds) != 5 {
		t.Errorf("%s: %d blocks, %d block records; want 5 and 5", st.Spec.Name, st.GW.Blocks, len(st.GW.Turnarounds))
	}
	for i, r := range st.GW.Turnarounds {
		if r.Queued < at || r.Done < r.Started {
			t.Errorf("%s: block record %d %+v: queued before the attach at %d", st.Spec.Name, i, r, at)
		}
	}
}

// TestAttachRunsOnRetiredStorage: once a reclaim has retired s1, the next
// stream attached with s1's capacities runs on s1's two C-FIFO buffers and
// its Outputs and block-record arrays. It starts with none of s1's words
// or records and ends with exactly its own.
func TestAttachRunsOnRetiredStorage(t *testing.T) {
	ms, err := BuildMulti(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var s1Outputs, s1Records int
	ms.SetRetireObserver(func(st *Stream) { s1Outputs, s1Records = len(st.Outputs), len(st.GW.Turnarounds) })
	whilePaused(t, ms, 3_000, 1, func() { reclaim(t, ms, "s1") })
	var b *Stream
	var sp spare
	var attachedAt sim.Time
	whilePaused(t, ms, 4_000, -1, func() {
		sp = topSpare(t, ms)
		attachedAt = ms.K.Now()
		b = attach(t, ms, attachedSpec("b", 24, 24))
		if len(ms.spares) != 0 {
			t.Errorf("%d spares left after the attach, want 0", len(ms.spares))
		}
		if len(b.Outputs) != 0 || len(b.GW.Turnarounds) != 0 {
			t.Errorf("b starts with %d outputs and %d block records, want none", len(b.Outputs), len(b.GW.Turnarounds))
		}
	})
	ms.Run(8_000)

	if b == nil {
		t.Fatal("b was never attached")
	}
	if s1Outputs != 72 || s1Records != 9 {
		t.Fatalf("s1 retired with %d outputs and %d block records, want 72 and 9", s1Outputs, s1Records)
	}
	checkRanClean(t, b, attachedAt)
	if !sameArray(b.Outputs, sp.outputs) || !sameArray(b.GW.Turnarounds, sp.records) {
		t.Error("b's outputs or block records are not in s1's arrays")
	}
	if in, out := b.In.DetachStorage(), b.Out.DetachStorage(); !sameArray(in, sp.in) || !sameArray(out, sp.out) {
		t.Error("b's C-FIFO buffers are not s1's")
	}
}

// TestAttachDropsMisfitSpare: a spare whose buffers do not have the next
// stream's capacities is dropped, and that stream allocates storage of its
// own capacities.
func TestAttachDropsMisfitSpare(t *testing.T) {
	ms, err := BuildMulti(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	whilePaused(t, ms, 3_000, 1, func() { reclaim(t, ms, "s1") })
	var b *Stream
	var sp spare
	var attachedAt sim.Time
	whilePaused(t, ms, 4_000, -1, func() {
		sp = topSpare(t, ms)
		attachedAt = ms.K.Now()
		b = attach(t, ms, attachedSpec("b", 32, 24))
		if len(ms.spares) != 0 {
			t.Errorf("%d spares left after the attach, want the misfit dropped", len(ms.spares))
		}
		if cap(b.Outputs) != 0 || cap(b.GW.Turnarounds) != 0 {
			t.Errorf("b starts with arrays of %d outputs and %d records, want fresh ones", cap(b.Outputs), cap(b.GW.Turnarounds))
		}
	})
	ms.Run(8_000)

	if b == nil {
		t.Fatal("b was never attached")
	}
	checkRanClean(t, b, attachedAt)
	if sameArray(b.Outputs, sp.outputs) || sameArray(b.GW.Turnarounds, sp.records) {
		t.Error("b runs on the dropped spare's arrays")
	}
	in, out := b.In.DetachStorage(), b.Out.DetachStorage()
	if len(in) != 32 || len(out) != 24 || sameArray(in, sp.in) || sameArray(out, sp.out) {
		t.Errorf("b's buffers hold %d and %d words (fresh: %v, %v); want fresh buffers of 32 and 24",
			len(in), len(out), !sameArray(in, sp.in), !sameArray(out, sp.out))
	}
}

// TestLateRetirementHoldsItsStorage: s1 is reclaimed while words of its
// last block are still on the ring to its sink. A stream attached before
// the sink has read them gets fresh storage; s1's storage serves only a
// stream attached after the retirement.
func TestLateRetirementHoldsItsStorage(t *testing.T) {
	ms, err := BuildMulti(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var retiredAt sim.Time
	var s1 *Stream
	ms.SetRetireObserver(func(st *Stream) {
		retiredAt = ms.K.Now()
		if st.collected != st.GW.SamplesOut || !st.Contiguous() {
			t.Errorf("s1 retired having read %d of %d words (contiguous %v)", st.collected, st.GW.SamplesOut, st.Contiguous())
		}
	})
	var x, y *Stream
	var xAt, yAt sim.Time
	whilePaused(t, ms, 3_000, 1, func() {
		s1 = ms.Chains[0].Strs[1]
		reclaim(t, ms, "s1")
		if s1.Out.Drained() || retiredAt != 0 {
			t.Fatal("s1 retired at its reclaim: no late word on the ring")
		}
		xAt = ms.K.Now()
		x = attach(t, ms, attachedSpec("x", 24, 24))
		if cap(x.Outputs) != 0 || cap(x.GW.Turnarounds) != 0 {
			t.Errorf("x, attached before s1 retired, starts with arrays of %d outputs and %d records, want fresh ones",
				cap(x.Outputs), cap(x.GW.Turnarounds))
		}
	})
	var sp spare
	whilePaused(t, ms, 4_000, -1, func() {
		sp = topSpare(t, ms)
		yAt = ms.K.Now()
		y = attach(t, ms, attachedSpec("y", 24, 24))
	})
	ms.Run(8_000)

	if x == nil || y == nil || retiredAt <= xAt || retiredAt >= yAt {
		t.Fatalf("x attached at %d, s1 retired at %d, y attached at %d; want the retirement between the attaches", xAt, retiredAt, yAt)
	}
	checkRanClean(t, x, xAt)
	checkRanClean(t, y, yAt)
	if !sameArray(y.Outputs, sp.outputs) || sameArray(x.Outputs, sp.outputs) {
		t.Error("s1's outputs array does not serve y alone")
	}
	xin, xout := x.In.DetachStorage(), x.Out.DetachStorage()
	yin, yout := y.In.DetachStorage(), y.Out.DetachStorage()
	if sameArray(xin, sp.in) || sameArray(xout, sp.out) || !sameArray(yin, sp.in) || !sameArray(yout, sp.out) {
		t.Error("s1's C-FIFO buffers do not serve y alone")
	}
}

// TestRetiredStreamHandsOverItsStorage: the retire observer sees the
// stream's outputs and block records whole; once it returns, the stream
// holds neither, and its C-FIFOs have no buffer left.
func TestRetiredStreamHandsOverItsStorage(t *testing.T) {
	ms, err := BuildMulti(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var s1 *Stream
	ms.SetRetireObserver(func(st *Stream) {
		s1 = st
		if len(st.Outputs) != 72 || !st.Contiguous() || len(st.GW.Turnarounds) != 9 || st.GW.Blocks != 9 {
			t.Errorf("the observer sees %d outputs (contiguous %v) and %d records of %d blocks; want 72 contiguous and 9 of 9",
				len(st.Outputs), st.Contiguous(), len(st.GW.Turnarounds), st.GW.Blocks)
		}
	})
	whilePaused(t, ms, 3_000, 1, func() { reclaim(t, ms, "s1") })
	ms.Run(6_000)

	if s1 == nil {
		t.Fatal("s1 never retired")
	}
	if s1.Outputs != nil || s1.GW.Turnarounds != nil {
		t.Errorf("retired s1 still holds %d outputs and %d block records", len(s1.Outputs), len(s1.GW.Turnarounds))
	}
	if in, out := s1.In.DetachStorage(), s1.Out.DetachStorage(); in != nil || out != nil {
		t.Errorf("retired s1's C-FIFOs still hold buffers of %d and %d words", len(in), len(out))
	}
	if len(ms.spares) != 1 {
		t.Errorf("%d spares after one retirement, want 1", len(ms.spares))
	}
}

// TestTombstoneHoldsNoEnginesOrSource: the chain's tombstone for a stream
// released by a reclaim or for a rebalance keeps the stream's name and no
// engine or source of it.
func TestTombstoneHoldsNoEnginesOrSource(t *testing.T) {
	cfg := lateOutputConfig()
	for i := range cfg.Chains[0].Streams {
		cfg.Chains[0].Streams[i].Source = func(n uint64) sim.Word { return sim.Word(n) }
	}
	ms, err := BuildMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	whilePaused(t, ms, 3_000, 1, func() { reclaim(t, ms, "s1") })
	whilePaused(t, ms, 3_500, 0, func() {
		if _, _, err := ms.ReleaseStream(0, "s0"); err != nil {
			t.Errorf("ReleaseStream(s0): %v", err)
		}
	})
	ms.Run(4_000)
	for slot, name := range []string{"s0", "s1"} {
		tomb := ms.Chains[0].Strs[slot]
		if !tomb.GW.Released || tomb.Spec.Name != name || !tomb.Spec.ExternalSource || !tomb.Spec.ExternalSink {
			t.Errorf("slot %d: %+v is not a tombstone of %s", slot, tomb.Spec, name)
		}
		if tomb.Spec.Engines != nil || tomb.Spec.Source != nil {
			t.Errorf("slot %d: the tombstone of %s keeps %d engines and a source %v", slot, name, len(tomb.Spec.Engines), tomb.Spec.Source != nil)
		}
	}
}
