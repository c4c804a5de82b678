package mpsoc

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/conformance"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
)

// faultPlatform is the shared scenario for the recovery tests: three
// streams over one accelerator (ρA = 1), ε = 15, δ = 1, Rs = 50, block
// η = 16. Eq. 2: τ̂ = Rs + (η+2)·c0 = 50 + 18·15 = 320 cycles per stream;
// Eq. 4 over the full set: γ̂ = 3·τ̂ = 960. At one sample per 75 cycles a
// stream fills a block every 1200 cycles > γ̂, so the healthy system meets
// every throughput constraint with slack.
func faultPlatform(plan *fault.Plan, rec gateway.Recovery) MultiConfig {
	stream := func(name string) StreamSpec {
		return StreamSpec{
			Name: name, Block: 16, Decimation: 1, Reconfig: 50,
			InCapacity: 128, OutCapacity: 64,
			SourcePeriod: 75,
			Engines:      []accel.Engine{&accel.Gain{}},
		}
	}
	return MultiConfig{
		HopLatency: 1,
		Chains: []ChainSpec{{
			Name:      "faulty",
			EntryCost: 15,
			ExitCost:  1,
			Mode:      gateway.ReconfigFixed,
			Accels:    []AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
			Streams: []StreamSpec{
				stream("s0"), stream("s1"), stream("s2"),
			},
			DrainTimeout:      600,
			Recovery:          rec,
			Faults:            plan,
			RecordTurnarounds: true,
		}},
	}
}

// TestQuarantineRestoresBounds is the tentpole acceptance scenario: stream
// s0's engine sticks permanently mid-block; after RetryLimit retries the
// gateway quarantines s0, and the surviving streams re-converge to their
// Eq. 2 / Eq. 4 bounds computed over the two-stream survivor set.
func TestQuarantineRestoresBounds(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		// Sticks at absolute sample 24 = midway through s0's second block.
		{Kind: fault.StickEngine, Stream: 0, Site: 0, Sample: 24},
	}}
	sys, err := Build(faultPlatform(plan, gateway.Recovery{Enabled: true, RetryLimit: 2}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200_000)
	rep := sys.Report()

	bad := rep.PerStream[0]
	if !bad.Quarantined {
		t.Fatal("stuck stream not quarantined")
	}
	// RetryLimit 2: stall -> retry 1 -> stall -> retry 2 -> stall -> out.
	if bad.Stalls != 3 || bad.Retries != 2 {
		t.Fatalf("s0 stalls=%d retries=%d, want 3/2", bad.Stalls, bad.Retries)
	}
	if bad.Blocks != 1 {
		t.Errorf("s0 completed %d blocks, want 1 (the block before the stick)", bad.Blocks)
	}

	quarantinedAt := sys.Strs[0].GW.QuarantinedAt
	for i := 1; i <= 2; i++ {
		sr := rep.PerStream[i]
		if sr.Stalls != 0 || sr.Quarantined {
			t.Fatalf("%s blamed for the fault: stalls=%d quarantined=%v", sr.Name, sr.Stalls, sr.Quarantined)
		}
		if sr.Overflows != 0 {
			t.Errorf("%s overflowed %d source samples — throughput constraint violated", sr.Name, sr.Overflows)
		}
		if sr.Blocks < 100 {
			t.Errorf("%s completed only %d blocks over the horizon", sr.Name, sr.Blocks)
		}
	}
	// Bound conformance over the survivor set: Eq. 2 with Rs=50, η=16,
	// c0=max(ε,ρA,δ)=15 gives τ̂=320, Eq. 4 over the TWO survivors γ̂=640.
	// Blocks queued during the disturbance carry the recovery backlog in
	// their turnaround; the bounds apply once the survivors have
	// re-converged, so the check starts a settle margin past the quarantine
	// (the ~47% spare capacity drains the backlog well within it).
	survivors := &core.System{
		Chain: core.Chain{
			Name: "faulty", AccelCosts: []uint64{1},
			EntryCost: 15, ExitCost: 1, NICapacity: 2,
		},
		ClockHz: 1,
	}
	for _, name := range []string{"s1", "s2"} {
		survivors.Streams = append(survivors.Streams, core.Stream{
			Name: name, Rate: big.NewRat(1, 75), Reconfig: 50, Block: 16,
		})
	}
	bounds, err := conformance.FromModel(survivors)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0].TauHat != 320 || bounds[0].GammaHat != 640 {
		t.Fatalf("survivor bounds τ̂=%d γ̂=%d, want 320/640", bounds[0].TauHat, bounds[0].GammaHat)
	}
	res := conformance.FromStreams(bounds,
		[]*gateway.Stream{sys.Strs[1].GW, sys.Strs[2].GW},
		conformance.Options{After: quarantinedAt + 20_000, MinBlocks: 50})
	if err := res.Err(); err != nil {
		t.Error(err)
	}
}

// TestCheckpointedTransientConformsToAdjustedBounds is the replay-cost
// acceptance check: a fault-plan transient (a dropped sample in a late
// sub-block) on a checkpointing chain resumes from the last checkpoint, so
// the measured retry work is at most K words — and the whole trace,
// retried block included, conforms to the adjusted Eq. 2 bounds via the
// conformance harness's ReplayBound/RetrySlack checks. The fault plan is
// checkpoint-aware for free: fault sample indices are engine-lifetime
// positions excluded from SaveState, so a checkpoint snapshot can never
// re-arm a transient that already fired — the resume replays PAST it.
func TestCheckpointedTransientConformsToAdjustedBounds(t *testing.T) {
	const (
		K      = 4
		ckCost = 5
	)
	plan := &fault.Plan{Faults: []fault.Fault{
		// Drops s0's lifetime sample 29 — block 2 (samples 16..31), final
		// sub-block (28..31), after three checkpoints committed.
		{Kind: fault.DropSample, Stream: 0, Site: 0, Sample: 29},
	}}
	rec := gateway.Recovery{
		Enabled: true, RetryLimit: 2,
		Checkpoint: K, CheckpointCost: ckCost, ValueExact: true,
	}
	sys, err := Build(faultPlatform(plan, rec))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200_000)
	rep := sys.Report()

	s0 := rep.PerStream[0]
	if s0.Retries != 1 || s0.Quarantined {
		t.Fatalf("s0 retries=%d quarantined=%v, want one clean retry (transient must not refire on resume)",
			s0.Retries, s0.Quarantined)
	}
	for i, sr := range rep.PerStream {
		if sr.Overflows != 0 {
			t.Errorf("%s overflowed %d samples", sr.Name, sr.Overflows)
		}
		if sr.Blocks < 100 {
			t.Errorf("stream %d completed only %d blocks over the horizon", i, sr.Blocks)
		}
	}
	// The retried block replayed exactly one sub-block.
	var retried *gateway.BlockRecord
	for bi := range sys.Strs[0].GW.Turnarounds {
		if r := &sys.Strs[0].GW.Turnarounds[bi]; r.Retries > 0 {
			if retried != nil {
				t.Fatal("more than one retried block for a single transient")
			}
			retried = r
		}
	}
	if retried == nil {
		t.Fatal("transient caused no retried block")
	}
	if retried.Replayed != K {
		t.Fatalf("retried block replayed %d words, want K=%d (one sub-block, not η=16)", retried.Replayed, K)
	}

	// Full-trace conformance against the adjusted Eq. 2 bounds:
	// τ̂(K=4) = 50 + (16 + 2·4)·15 + 3·5 = 425, γ̂ = 3·425 = 1275. The
	// retried block gets one retry's slack — worst-case detection (up to
	// TWO DrainTimeout windows: progress can stop right after a watchdog
	// check, and the stall needs one full progress-free window after the
	// next) + flush settle (600) + the resume bound Rs + (K+2)·c0 = 140 —
	// instead of a blanket exemption, and every block's replay work is
	// capped at K per retry.
	model := &core.System{
		Chain: core.Chain{
			Name: "faulty", AccelCosts: []uint64{1},
			EntryCost: 15, ExitCost: 1, NICapacity: 2,
		},
		ClockHz: 1,
	}
	for _, name := range []string{"s0", "s1", "s2"} {
		model.Streams = append(model.Streams, core.Stream{
			Name: name, Rate: big.NewRat(1, 75), Reconfig: 50, Block: 16,
		})
	}
	bounds, err := conformance.FromModelCheckpointed(model, K, ckCost)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0].TauHat != 425 || bounds[0].GammaHat != 1275 {
		t.Fatalf("adjusted bounds τ̂=%d γ̂=%d, want 425/1275", bounds[0].TauHat, bounds[0].GammaHat)
	}
	resume, err := model.ResumeBound(0, K)
	if err != nil {
		t.Fatal(err)
	}
	if resume != 140 {
		t.Fatalf("resume bound = %d, want 140 = 50 + (4+2)·15", resume)
	}
	res := conformance.FromStreams(bounds,
		[]*gateway.Stream{sys.Strs[0].GW, sys.Strs[1].GW, sys.Strs[2].GW},
		conformance.Options{
			MinBlocks:   100,
			ReplayBound: K,
			RetrySlack:  2*600 + 600 + resume,
			// The retried block's γ̂ carries the same recovery backlog its
			// τ̂ does; successor blocks queued behind it are covered by the
			// FilterQueued-style transition argument, so scope γ̂/throughput
			// checks from a settle margin after the retry instead.
			SkipGamma: true,
		})
	if err := res.Err(); err != nil {
		t.Error(err)
	}
	if res.Checked < 300 {
		t.Errorf("conformance checked %d blocks, want the full three-stream trace", res.Checked)
	}
}

// TestRecoveryDisabledDeadlocks is the counterfactual: the same stuck
// engine with recovery off wedges the whole chain — the event budget runs
// out with the healthy streams frozen and their sources overflowing.
func TestRecoveryDisabledDeadlocks(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.StickEngine, Stream: 0, Site: 0, Sample: 24},
	}}
	sys, err := Build(faultPlatform(plan, gateway.Recovery{})) // detect-only
	if err != nil {
		t.Fatal(err)
	}
	sys.Pair.Start()
	const budget = 500_000
	steps := 0
	for steps < budget && sys.K.Step() {
		steps++
	}
	if steps < budget {
		t.Fatalf("event queue drained after %d steps — expected a live-locked platform", steps)
	}
	rep := sys.Report()
	if rep.PerStream[0].Stalls != 1 {
		t.Errorf("s0 stalls = %d, want 1 (detect-only fires once)", rep.PerStream[0].Stalls)
	}
	for i := 1; i <= 2; i++ {
		sr := rep.PerStream[i]
		// Head-of-line deadlock: the healthy streams completed at most the
		// few blocks served before the wedge, then froze while their
		// periodic sources overran the input FIFOs.
		if sr.Blocks > 5 {
			t.Errorf("%s completed %d blocks — chain not deadlocked", sr.Name, sr.Blocks)
		}
		if sr.Overflows == 0 {
			t.Errorf("%s shows no overflows despite the frozen chain", sr.Name)
		}
	}
}

// TestTransientLinkWedgeRecovers arms a finite entry-link wedge through the
// fault plan: the block in flight stalls, recovery retries it after the
// wedge lifts, and every stream finishes with nothing quarantined.
func TestTransientLinkWedgeRecovers(t *testing.T) {
	// The wedge must outlast two watchdog windows (2×600): detection needs
	// one FULL progress-free window between consecutive checks, so shorter
	// freezes can be ridden out without ever firing.
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.WedgeLink, Site: 0, At: 500, Duration: 1500},
	}}
	cfg := faultPlatform(plan, gateway.Recovery{Enabled: true, RetryLimit: 3})
	for i := range cfg.Chains[0].Streams {
		cfg.Chains[0].Streams[i].SourcePeriod = 20
		cfg.Chains[0].Streams[i].TotalInputs = 64 // 4 blocks each, finite run
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Pair.Start()
	sys.K.RunAll()
	rep := sys.Report()
	totalRetries := uint64(0)
	for _, sr := range rep.PerStream {
		totalRetries += sr.Retries
		if sr.Quarantined {
			t.Errorf("%s quarantined by a transient wedge", sr.Name)
		}
		if sr.Blocks != 4 {
			t.Errorf("%s completed %d blocks, want 4", sr.Name, sr.Blocks)
		}
		if sr.SamplesOut != 64 {
			t.Errorf("%s delivered %d samples, want 64 (no loss, no duplicates)", sr.Name, sr.SamplesOut)
		}
	}
	if totalRetries == 0 {
		t.Error("wedge caused no retries — fault never landed")
	}
}
