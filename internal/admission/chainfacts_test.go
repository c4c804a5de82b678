package admission

// The controller reads its chain's facts from the platform: each stream's
// decimation (the block granularity) and the checkpoint interval that
// stretches the drain bound. A caller restates neither.

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
)

// buildChain runs the demo chain (ε=15, ρA=1, δ=1) carrying specs under
// recovery rec, with one reserved slot, and attaches a controller over model
// with no other settings than the bus cost.
func buildChain(t *testing.T, model *core.System, specs []mpsoc.StreamSpec, rec gateway.Recovery) (*mpsoc.MultiSystem, *Controller) {
	t.Helper()
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{
		Chains: []mpsoc.ChainSpec{{
			Name: "demo", EntryCost: entryCost, ExitCost: 1,
			Mode:    gateway.ReconfigFixed,
			Accels:  []mpsoc.AccelSpec{{Name: "acc", Cost: 1}},
			Streams: specs, DrainTimeout: 200,
			Recovery:          rec,
			RecordTurnarounds: true,
			ReserveSlots:      1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ms, Config{Chain: 0, Model: model, PerSlotCost: 10})
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
	rate := big.NewRat(1, 300)
	model := demoModel([]string{"d1", "d2"}, []*big.Rat{rate, rate})
	res, err := model.LeastFixedPoint(nil, []int64{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var specs []mpsoc.StreamSpec
	for i := range model.Streams {
		model.Streams[i].Block = res.Blocks[i]
		specs = append(specs, mpsoc.StreamSpec{
			Name: model.Streams[i].Name, Block: res.Blocks[i], Decimation: 2,
			Reconfig: rsCycles, InCapacity: 128, OutCapacity: 128,
			SourcePeriod: 300, Engines: cicEngines(t),
		})
	}
	ms, ctrl := buildChain(t, model, specs, recoveryCfg())

	var added *Verdict
	ms.K.ScheduleAt(5_000, func() {
		req := addReq("d3", 1, 75, 256, 128, 75)
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
	rate := big.NewRat(1, period)
	model := demoModel([]string{"s1", "s2", "s3", "s4"}, []*big.Rat{rate, rate, rate, rate})
	if _, err := model.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	var specs []mpsoc.StreamSpec
	for i := range model.Streams {
		specs = append(specs, mpsoc.StreamSpec{
			Name: model.Streams[i].Name, Block: model.Streams[i].Block, Decimation: 1,
			Reconfig: rsCycles, InCapacity: 128, OutCapacity: 128,
			SourcePeriod: period, Engines: []accel.Engine{&accel.Gain{}},
		})
	}
	rec := recoveryCfg()
	rec.Checkpoint, rec.CheckpointCost = 4, 5
	_, ctrl := buildChain(t, model, specs, rec)

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
