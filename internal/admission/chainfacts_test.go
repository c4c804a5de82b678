package admission

// The controller reads its chain's facts from the platform: each stream's
// decimation (the block granularity), the checkpoint interval that
// stretches the drain bound, and a migrant's rate, Rs, C-FIFOs and replay
// residue. A caller restates none of them.

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/mpsoc"
)

// buildChain runs chain with one reserved slot, the chains extra after it,
// and attaches a controller to chain with no settings but its index.
func buildChain(t *testing.T, chain mpsoc.ChainSpec, extra ...mpsoc.ChainSpec) (*mpsoc.MultiSystem, *Controller) {
	t.Helper()
	chain.ReserveSlots = 1
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{Chains: append([]mpsoc.ChainSpec{chain}, extra...)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ms, Config{Chain: 0})
	if err != nil {
		t.Fatal(err)
	}
	ms.Chains[0].Pair.Start()
	return ms, ctrl
}

func cicEngines(t *testing.T) []accel.Engine {
	t.Helper()
	e, err := enginetest.NewCIC(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []accel.Engine{e}
}

// TestDecimationFromChain: on a chain whose streams decimate by 2, an
// admission must reprogram every slot at a multiple of 2 with OutBlock =
// Block/2. A survivor given OutBlock = Block waits for outputs its engine
// never produces, stalls and is quarantined.
func TestDecimationFromChain(t *testing.T) {
	specs := []mpsoc.StreamSpec{demoStream("d1", 300, 128, 128), demoStream("d2", 300, 128, 128)}
	for i := range specs {
		specs[i].Decimation, specs[i].Engines = 2, cicEngines(t)
	}
	ms, ctrl := buildChain(t, demoChain(t, specs, recoveryCfg()))

	var added *Verdict
	ms.K.ScheduleAt(5_000, func() {
		req := addReq("d3", 75, 256, 128)
		req.Spec.Decimation = 2
		req.Spec.Engines = cicEngines(t)
		ctrl.AddStream(req, func(v Verdict) { added = &v })
	})
	ms.K.Run(100_000)

	if added == nil || !added.Accepted {
		t.Fatalf("add d3: %+v", added)
	}
	snaps := ms.Chains[0].Pair.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("%d slots, want 3", len(snaps))
	}
	for _, sn := range snaps {
		if sn.Block%2 != 0 || sn.OutBlock*2 != sn.Block {
			t.Errorf("%s: block %d out-block %d, want a multiple of 2 and half of it", sn.Name, sn.Block, sn.OutBlock)
		}
		if sn.Stalls != 0 || sn.Quarantined {
			t.Errorf("%s: %d stalls, quarantined %v", sn.Name, sn.Stalls, sn.Quarantined)
		}
		if sn.Blocks == 0 {
			t.Errorf("%s: no block completed", sn.Name)
		}
	}
}

// TestMaxTauReadsChainCheckpoint: on a chain that checkpoints every K=4
// samples at snapshot cost 5, MaxTau is the adjusted Eq. 2 term τ̂s(4),
// though the controller's Config says nothing about checkpoints.
func TestMaxTauReadsChainCheckpoint(t *testing.T) {
	rec := recoveryCfg()
	rec.Checkpoint, rec.CheckpointCost = 4, 5
	chain := demoChain(t, demoStreams(128), rec)
	_, ctrl := buildChain(t, chain)
	model := chain.Model()

	var want, plain uint64
	for i := range model.Streams {
		tau, err := model.TauHatCheckpointed(i, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		want = max(want, tau)
		tau, err = model.TauHat(i)
		if err != nil {
			t.Fatal(err)
		}
		plain = max(plain, tau)
	}
	if want == plain {
		t.Fatalf("fixture: τ̂(4) = τ̂ = %d, the check would not tell them apart", want)
	}
	if got := ctrl.MaxTau(); got != want {
		t.Errorf("MaxTau = %d, want τ̂(K=4) = %d (plain τ̂ %d)", got, want, plain)
	}
}

// TestMigrantReadFromStream: an evacuated stream brings everything its
// admission needs; the request is the stream and its export. A migrant
// whose one-word input C-FIFO cannot hold its input bound is refused for
// that FIFO. A migrant frozen 12 samples into a 40-sample block lands at
// the rate its source period gives (one sample per 600 cycles) and its own
// Rs of 80, and the 13 input words its export replays floor its ηs at 13,
// far above Algorithm 1's minimum of 1 on this slack chain.
func TestMigrantReadFromStream(t *testing.T) {
	small := demoStream("m1", 300, 1, 64)
	large := demoStream("m2", 600, 128, 128)
	large.Reconfig = 80
	donor := donorChain(t, small, large)
	donor.Streams[1].Block = 40
	ms, ctrl := buildChain(t, demoChain(t, []mpsoc.StreamSpec{demoStream("s1", 3000, 128, 128)}, recoveryCfg()), donor)
	b := &bed{ms: ms, ctrl: ctrl}
	ms.Chains[1].Pair.Start()
	gw := ms.Chains[1].Strs[1].GW
	if !ms.K.RunUntil(100_000, func() bool { return gw.SamplesIn%40 == 12 }) {
		t.Fatal("m2 never got 12 samples into a block")
	}
	migrants := b.evacuate(t, 1)
	if e := migrants[1].Export; e.ReplayStart != 0 || len(e.Replay) != 13 || e.Committed > 13 {
		t.Fatalf("m2's export replays %d words from %d, %d committed; want 13 from 0", len(e.Replay), e.ReplayStart, e.Committed)
	}

	var v1, v2 *Verdict
	ctrl.AdmitMigrated(migrants[0], func(v Verdict) { v1 = &v })
	if v1 == nil || v1.Reason != ReasonBufferBound || v1.Detail != `stream "m1" input FIFO 1 < bound 2` {
		t.Fatalf("m1: %+v, want a buffer-bound refusal for its one-word input FIFO", v1)
	}
	ctrl.AdmitMigrated(migrants[1], func(v Verdict) { v2 = &v })
	if !ms.K.RunUntil(ms.K.Now()+60_000, func() bool { return v2 != nil }) {
		t.Fatal("m2's verdict never arrived")
	}
	if !v2.Accepted || v2.Blocks[len(v2.Blocks)-1].Block != 13 {
		t.Fatalf("m2: %+v, want admitted at the replay floor 13", v2)
	}
	m := ctrl.Model()
	got := m.Streams[len(m.Streams)-1]
	if got.Name != "m2" || got.Rate.Cmp(big.NewRat(1, 600)) != 0 || got.Reconfig != 80 || got.Block != 13 {
		t.Errorf("m2's model entry {%s %s %d %d}, want {m2 1/600 80 13}", got.Name, got.Rate.RatString(), got.Reconfig, got.Block)
	}
	// Without the residue Algorithm 1 gives m2 the least block, 1.
	res, err := m.LeastFixedPoint(nil, nil, 0)
	if err != nil || res.Blocks[len(res.Blocks)-1] != 1 {
		t.Errorf("least fixed point %v (%v): want m2 at 1, under its floor", res, err)
	}
}
