package mpsoc

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/conformance"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// failoverPlatform builds the two-chain failover bed: the faultPlatform
// chain (ε=15, ρA=1, δ=1, Rs=50, η=16 → τ̂=320) as primary plus an empty
// standby pair, sources feeding every stream and sinks collecting outputs so
// tests can verify sample-exact continuity across a migration.
func failoverPlatform(t *testing.T, plan *fault.Plan, nStreams int, periods []int64, standbyCost sim.Time) (*MultiSystem, *core.System) {
	return failoverPlatformRec(t, plan, nStreams, periods, standbyCost,
		gateway.Recovery{Enabled: true, RetryLimit: 2})
}

// failoverPlatformRec is failoverPlatform with an explicit recovery config
// (both chains), for the checkpointed variants.
func failoverPlatformRec(t *testing.T, plan *fault.Plan, nStreams int, periods []int64, standbyCost sim.Time, rec gateway.Recovery) (*MultiSystem, *core.System) {
	t.Helper()
	var specs []StreamSpec
	model := &core.System{
		Chain: core.Chain{
			Name: "primary", AccelCosts: []uint64{1},
			EntryCost: 15, ExitCost: 1, NICapacity: 2,
		},
		ClockHz: 1,
	}
	for i := 0; i < nStreams; i++ {
		name := fmt.Sprintf("s%d", i)
		specs = append(specs, StreamSpec{
			Name: name, Block: 16, Decimation: 1, Reconfig: 50,
			InCapacity: 128, OutCapacity: 64,
			SourcePeriod:   sim.Time(periods[i]),
			Engines:        []accel.Engine{&accel.Gain{}},
			CollectOutputs: true,
		})
		model.Streams = append(model.Streams, core.Stream{
			Name: name, Rate: big.NewRat(1, periods[i]), Reconfig: 50, Block: 16,
		})
	}
	ms, err := BuildMulti(MultiConfig{
		HopLatency:     1,
		RecordActivity: true,
		Chains: []ChainSpec{
			{
				Name: "primary", EntryCost: 15, ExitCost: 1, Mode: gateway.ReconfigFixed,
				Accels:  []AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
				Streams: specs, DrainTimeout: 600,
				Recovery: rec,
				Faults:   plan, RecordTurnarounds: true,
			},
			{
				Name: "standby", EntryCost: 15, ExitCost: 1, Mode: gateway.ReconfigFixed,
				Accels:  []AccelSpec{{Name: "acc-b", Cost: standbyCost, NICapacity: 2}},
				Standby: true, DrainTimeout: 600,
				Recovery:          rec,
				RecordTurnarounds: true,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, model
}

// checkContiguous verifies the identity-engine output sequence 0,1,2,... —
// sample-exact continuity across the migration.
func checkContiguous(t *testing.T, ch *Chain) {
	t.Helper()
	for _, st := range ch.Strs {
		for k, w := range st.Outputs {
			if w != sim.Word(k) {
				t.Fatalf("%s output[%d] = %d: lost or duplicated sample across failover", st.Spec.Name, k, w)
			}
		}
	}
}

// failoverConformance checks the post-migration trace of every live stream
// against the ACTIVE chain's bounds (standby cost, post-failover blocks).
// When the chains checkpoint, k/ckCost select the adjusted Eq. 2 bounds and
// the replay check enforces retry work ≤ k per retry.
func failoverConformance(t *testing.T, model *core.System, ch *Chain, standbyCost uint64, after sim.Time, minBlocks int, k int64, ckCost uint64) {
	t.Helper()
	snaps := ch.Pair.Snapshot()
	live := &core.System{
		Chain:   model.Chain,
		ClockHz: model.ClockHz,
	}
	live.Chain.AccelCosts = []uint64{standbyCost}
	var streams []*gateway.Stream
	for i, sn := range snaps {
		if sn.Quarantined || sn.Suspended {
			continue
		}
		for _, msr := range model.Streams {
			if msr.Name == sn.Name {
				msr.Block = sn.Block
				live.Streams = append(live.Streams, msr)
				break
			}
		}
		streams = append(streams, ch.Strs[i].GW)
	}
	bounds, err := conformance.FromModelCheckpointed(live, k, ckCost)
	if err != nil {
		t.Fatal(err)
	}
	res := conformance.FromStreams(bounds, streams, conformance.Options{
		After: after, SkipRetried: true, MinBlocks: minBlocks, ReplayBound: k,
	})
	if err := res.Err(); err != nil {
		t.Error(err)
	}
	if res.Checked == 0 {
		t.Error("conformance checked zero blocks")
	}
}

// TestChainFailover is the tentpole acceptance scenario: a permanent entry
// wedge at t=5000 stalls the chain, the doctor convicts it, and the
// controller migrates all three streams to the standby. Acceptance:
// the measured failover cost stays within its bound, no stream loses or
// duplicates a single sample, and the survivors meet Eq. 2/4/5 on the
// standby for the rest of the horizon.
func TestChainFailover(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.WedgeLink, Site: 0, At: 5_000},
	}}
	ms, model := failoverPlatform(t, plan, 3, []int64{75, 75, 75}, 1)
	fc, err := NewFailover(ms, FailoverConfig{
		Primary: 0, Standby: 1, Model: model, PerSlotCost: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Arm(fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1}); err != nil {
		t.Fatal(err)
	}
	ms.Run(120_000)

	rec := fc.Record()
	if rec == nil {
		t.Fatal("failover never completed")
	}
	if rec.MeasuredCycles > rec.BoundCycles {
		t.Fatalf("failover cost %d cycles exceeds bound %d (max τ̂ + %d slots × bus)",
			rec.MeasuredCycles, rec.BoundCycles, len(rec.Names))
	}
	// τ̂=320 with 3 slots at bus cost 10 → bound 350; the settle clamp makes
	// the measured cost exactly meet it.
	if rec.BoundCycles != 350 {
		t.Errorf("bound = %d, want 350 = τ̂ 320 + 3×10", rec.BoundCycles)
	}
	if rec.ReplayWords == 0 {
		t.Error("wedge hit mid-block but no replay words migrated")
	}
	if !ms.Chains[0].Pair.Failed() {
		t.Error("primary not retired")
	}
	if got := len(ms.Chains[1].Strs); got != 3 {
		t.Fatalf("standby carries %d streams, want 3", got)
	}
	for _, sn := range ms.Chains[1].Pair.Snapshot() {
		if sn.Quarantined {
			t.Errorf("%s quarantined across the failover", sn.Name)
		}
	}
	for _, st := range ms.Chains[1].Strs {
		if st.Overflows != 0 {
			t.Errorf("%s overflowed %d samples", st.Spec.Name, st.Overflows)
		}
	}
	checkContiguous(t, ms.Chains[1])
	// One backlog-drain margin past the resume (the freeze+settle queue the
	// sources kept filling), then the single-token bounds must hold again.
	failoverConformance(t, model, ms.Chains[1], 1, rec.ResumedAt+8_000, 20, 0, 0)
}

// TestChainFailoverCheckpointed: the same wedge-convict-migrate sequence on
// a checkpointing chain. The migrated residue is the words since the last
// committed checkpoint — bounded by K, not by η — the failover bound uses
// the adjusted Eq. 2 term τ̂(K), and the post-migration trace must conform
// to the adjusted bounds with replay work ≤ K per retry.
func TestChainFailoverCheckpointed(t *testing.T) {
	const K = 4
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.WedgeLink, Site: 0, At: 5_000},
	}}
	rec := gateway.Recovery{
		Enabled: true, RetryLimit: 2,
		Checkpoint: K, CheckpointCost: 5, ValueExact: true,
	}
	ms, model := failoverPlatformRec(t, plan, 3, []int64{75, 75, 75}, 1, rec)
	// The bound reads K and the snapshot cost from the primary's Recovery.
	fc, err := NewFailover(ms, FailoverConfig{
		Primary: 0, Standby: 1, Model: model, PerSlotCost: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Arm(fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1}); err != nil {
		t.Fatal(err)
	}
	ms.Run(120_000)

	frec := fc.Record()
	if frec == nil {
		t.Fatal("failover never completed")
	}
	if frec.MeasuredCycles > frec.BoundCycles {
		t.Fatalf("failover cost %d cycles exceeds bound %d", frec.MeasuredCycles, frec.BoundCycles)
	}
	// τ̂(K=4) for η=16: 50 + (16 + 2·4)·15 + 3·5 = 425; + 3 slots × 10 bus.
	if frec.BoundCycles != 455 {
		t.Errorf("bound = %d, want 455 = adjusted τ̂ 425 + 3×10", frec.BoundCycles)
	}
	// The whole point: the in-flight residue is a sub-block, not the block.
	if frec.ReplayWords > K {
		t.Fatalf("migrated %d replay words, checkpointing bounds the residue by K=%d", frec.ReplayWords, K)
	}
	if got := len(ms.Chains[1].Strs); got != 3 {
		t.Fatalf("standby carries %d streams, want 3", got)
	}
	for _, st := range ms.Chains[1].Strs {
		if st.Overflows != 0 {
			t.Errorf("%s overflowed %d samples", st.Spec.Name, st.Overflows)
		}
	}
	checkContiguous(t, ms.Chains[1])
	failoverConformance(t, model, ms.Chains[1], 1, frec.ResumedAt+8_000, 20, K, 5)
}

// TestFailoverTraceSpan: both pairs record the controller-level span and the
// trace package renders it as its own row.
func TestFailoverTraceSpan(t *testing.T) {
	ms, model := failoverPlatform(t, &fault.Plan{}, 2, []int64{80, 80}, 1)
	fc, err := NewFailover(ms, FailoverConfig{Primary: 0, Standby: 1, Model: model, PerSlotCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	ms.K.ScheduleAt(10_000, func() { fc.Trigger("test") })
	ms.Run(30_000)
	rec := fc.Record()
	if rec == nil {
		t.Fatal("manual failover never completed")
	}
	found := 0
	for _, ch := range ms.Chains {
		for _, a := range ch.Pair.Activities {
			if a.Kind == gateway.ActFailover {
				if a.Start != rec.TriggeredAt || a.End != rec.ResumedAt {
					t.Errorf("failover span [%d,%d], record says [%d,%d]", a.Start, a.End, rec.TriggeredAt, rec.ResumedAt)
				}
				found++
			}
		}
	}
	if found != 2 {
		t.Errorf("failover span recorded on %d pairs, want both", found)
	}
}

// TestFailoverSweep is the property-based campaign: seeded random stream
// sets (count and rates) × fault plans (entry wedge, node wedge, none) ×
// triggers (doctor verdict or operator-scheduled). Every draw must satisfy
// the same properties the acceptance test checks — cost within bound,
// sample-exact continuity, post-migration bound conformance. A failure names
// its subtest seed, which replays the exact draw.
func TestFailoverSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs many simulations")
	}
	const seeds = 8
	for s := int64(0); s < seeds; s++ {
		seed := 0x5EED + s
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nStreams := 2 + rng.Intn(3) // 2..4
			periods := make([]int64, nStreams)
			for i := range periods {
				// γ̂ for 4 streams is 1280; a block fills every 16·period, so
				// period ≥ 85 keeps every draw feasible with slack.
				periods[i] = 85 + int64(rng.Intn(40))
			}
			var plan fault.Plan
			var manualAt sim.Time
			faultAt := sim.Time(3_000 + rng.Intn(12_000))
			switch rng.Intn(3) {
			case 0:
				plan.Faults = []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: faultAt}}
			case 1:
				plan.Faults = []fault.Fault{{Kind: fault.WedgeNode, Site: 0, At: faultAt}}
			default:
				manualAt = faultAt // healthy chain, operator-initiated
			}
			ms, model := failoverPlatform(t, &plan, nStreams, periods, 1)
			fc, err := NewFailover(ms, FailoverConfig{
				Primary: 0, Standby: 1, Model: model, PerSlotCost: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if manualAt > 0 {
				ms.K.ScheduleAt(manualAt, func() { fc.Trigger("sweep operator") })
			} else {
				if _, err := fc.Arm(fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1}); err != nil {
					t.Fatal(err)
				}
			}
			ms.Run(100_000)

			rec := fc.Record()
			if rec == nil {
				t.Fatal("failover never completed")
			}
			if rec.MeasuredCycles > rec.BoundCycles {
				t.Fatalf("cost %d > bound %d", rec.MeasuredCycles, rec.BoundCycles)
			}
			if len(ms.Chains[1].Strs) != nStreams {
				t.Fatalf("standby carries %d streams, want %d", len(ms.Chains[1].Strs), nStreams)
			}
			for _, st := range ms.Chains[1].Strs {
				if st.Overflows != 0 {
					t.Errorf("%s overflowed %d samples", st.Spec.Name, st.Overflows)
				}
			}
			checkContiguous(t, ms.Chains[1])
			failoverConformance(t, model, ms.Chains[1], 1, rec.ResumedAt+8_000, 10, 0, 0)
		})
	}
}
