package mpsoc

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// TestStagedExitPinned pins the output timing of a two-stream chain with
// value-exact recovery, where every block's outputs are staged at the exit
// gateway and committed word by word to the output C-FIFO (stageStep). The
// figures are the per-word transport's: a change to the ring, the C-FIFOs
// or the wake gating that moves one commit instant fails here, even when
// it keeps every word and every count.
func TestStagedExitPinned(t *testing.T) {
	mk := func(name string) StreamSpec {
		return StreamSpec{
			Name:           name,
			Block:          8,
			Decimation:     1,
			Reconfig:       40,
			InCapacity:     32,
			OutCapacity:    32,
			Engines:        []accel.Engine{&enginetest.Shift{By: 1}, &enginetest.Shift{By: 2}},
			TotalInputs:    96,
			CollectOutputs: true,
		}
	}
	sys, err := Build(MultiConfig{
		HopLatency:        1,
		RecordOutputTimes: true,
		Chains: []ChainSpec{{
			Name:              "staged",
			EntryCost:         4,
			ExitCost:          1,
			Mode:              gateway.ReconfigFixed,
			RecordTurnarounds: true,
			Recovery:          gateway.Recovery{ValueExact: true},
			Accels: []AccelSpec{
				{Name: "g0", Cost: 2},
				{Name: "g1", Cost: 3},
			},
			Streams: []StreamSpec{mk("a"), mk("b")},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200_000)

	want := []struct {
		first, last sim.Time // commit instants of the first four and the last word
		digest      uint64   // FNV-64a over every OutTimes entry, little-endian
	}{
		{178, 2118, 0xed264b099fdc6355},
		{90, 2030, 0x946054c5a7231605},
	}
	for i, w := range want {
		st, gs := sys.Strs[i], sys.Pair.Streams()[i]
		if len(st.Outputs) != 96 || len(gs.OutTimes) != 96 {
			t.Fatalf("stream %d: %d outputs, %d commit times, want 96", i, len(st.Outputs), len(gs.OutTimes))
		}
		for j, at := range gs.OutTimes[:4] {
			if at != w.first {
				t.Errorf("stream %d: word %d committed at t=%d, want %d", i, j, at, w.first)
			}
		}
		if gs.OutTimes[4] == w.first {
			t.Errorf("stream %d: a fifth word committed at t=%d", i, w.first)
		}
		if last := gs.OutTimes[95]; last != w.last {
			t.Errorf("stream %d: last word committed at t=%d, want %d", i, last, w.last)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, at := range gs.OutTimes {
			binary.LittleEndian.PutUint64(b[:], uint64(at))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != w.digest {
			t.Errorf("stream %d: OutTimes digest %016x, want %016x", i, got, w.digest)
		}
		if st.Out.AckMessages != 96 {
			t.Errorf("stream %d: %d out-FIFO ack messages, want 96", i, st.Out.AckMessages)
		}
		if len(gs.Turnarounds) != 12 {
			t.Errorf("stream %d: %d turnarounds, want 12", i, len(gs.Turnarounds))
		}
	}
	if r := sys.Report(); r.ReconfigCycles != 960 || r.StreamingCycles != 768 {
		t.Errorf("report: %d reconfiguration and %d streaming cycles, want 960 and 768",
			r.ReconfigCycles, r.StreamingCycles)
	}
}
