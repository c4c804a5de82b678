package main

// failover: the multi-chain failover campaign. A three-stream chain runs
// live next to an empty standby gateway pair (the paper's Fig. 1 carries two
// pairs on one ring). Scenarios wedge the primary chain — a severed link, a
// frozen ring node — until the fault doctor convicts the whole chain and the
// FailoverController migrates every stream to the standby: freeze, settle,
// state export, C-FIFO re-pointing, one validated slot transaction, resume.
// A per-stream fault (stuck engine) stays a per-stream problem: the doctor's
// distinct-streams threshold withholds the verdict and the ordinary
// retry/quarantine ladder handles it on the primary. The last scenario is an
// operator-initiated migration onto a SLOWER standby, where the survivor
// re-solve (Algorithm 1, warm-started) grows the block sizes.
//
// Each scenario reports the measured failover cost against its bound
// (max τ̂s of the outgoing configuration + per-slot bus cost), verifies that
// every stream's output sequence is contiguous (zero lost or duplicated
// samples across the migration), and runs the conformance harness over the
// post-failover trace. Everything is deterministic: two runs produce
// byte-identical output (a regression test enforces it).

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"

	"accelshare/internal/accel"
	"accelshare/internal/conformance"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
	"accelshare/internal/trace"
)

func init() {
	register("failover", "multi-chain failover: wedged-chain verdicts, stream migration, cost vs bound", runFailover)
}

func runFailover(args []string) error {
	fs := flag.NewFlagSet("failover", flag.ContinueOnError)
	horizon := fs.Int64("horizon", 60_000, "cycles to simulate per scenario")
	script := fs.String("script", "", "fault script file replacing the wedge-link scenario's plan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *horizon <= 0 {
		return fmt.Errorf("-horizon must be positive, got %d", *horizon)
	}
	var plan *fault.Plan
	if *script != "" {
		raw, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		plan, err = fault.ParseScript(string(raw))
		if err != nil {
			return err
		}
	}
	return failoverCampaign(os.Stdout, sim.Time(*horizon), plan)
}

// failoverScenario is one campaign entry.
type failoverScenario struct {
	name string
	plan *fault.Plan
	// doctor arms a wedged-chain doctor on the primary (nil = none).
	doctor *fault.DoctorConfig
	// manualAt, when positive, triggers an operator-initiated failover.
	manualAt sim.Time
	// standbyCost is the standby accelerator's per-sample cost (default 1 =
	// identical chain); a different cost makes the failover re-solve
	// Algorithm 1 for the migrated set.
	standbyCost uint64
	// ckpt enables checkpointed recovery (interval in input samples) on
	// both chains: the migrated residue shrinks to ≤ ckpt words and the
	// cost bound uses the adjusted Eq. 2 term τ̂(K).
	ckpt     int64
	ckptCost sim.Time
}

// failoverModel is the temporal model of the three streams on a chain: on
// the primary (ε=15, ρA=1, δ=1), Rs=50 and η=16 give τ̂=320 and γ̂=960
// (Eq. 2/4); μs=1/75 needs 1200 cycles per block, so the bounds hold with
// slack.
func failoverModel(chain core.Chain) *core.System {
	m := &core.System{Chain: chain, ClockHz: 1}
	for _, name := range []string{"s0", "s1", "s2"} {
		m.Streams = append(m.Streams, core.Stream{
			Name: name, Rate: big.NewRat(1, 75), Reconfig: 50, Block: 16,
		})
	}
	return m
}

// failoverScenarios builds the campaign grid. The wedge doctors convict on
// stall count alone (a wedged chain pins round-robin arbitration on the
// stalling stream, so stalls cannot spread before the retry budget runs
// out); the stick-engine doctor demands two distinct streams and therefore
// correctly never convicts the chain for one stream's dead engine.
func failoverScenarios(override *fault.Plan) []failoverScenario {
	wedgeDoctor := &fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1}
	wedgePlan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.WedgeLink, Site: 0, At: 5_000},
	}}
	if override != nil {
		wedgePlan = override
	}
	return []failoverScenario{
		{
			name:   "wedge-link entry@5k (permanent)",
			plan:   wedgePlan,
			doctor: wedgeDoctor,
		},
		{
			name: "wedge-node entry@5k (permanent)",
			plan: &fault.Plan{Faults: []fault.Fault{
				{Kind: fault.WedgeNode, Site: 0, At: 5_000},
			}},
			doctor: wedgeDoctor,
		},
		{
			name: "stick-engine s0@24 (no failover)",
			plan: &fault.Plan{Faults: []fault.Fault{
				{Kind: fault.StickEngine, Stream: 0, Site: 0, Sample: 24},
			}},
			doctor: &fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 2},
		},
		{
			name:        "operator migration to slower standby",
			plan:        &fault.Plan{},
			manualAt:    20_000,
			standbyCost: 20,
		},
		{
			// The same permanent wedge on a checkpointing chain: the
			// in-flight block's residue is the words since the last
			// K-sample checkpoint (≤ 4), not the whole η=16, and the bound
			// pays the adjusted τ̂(K) = 50 + (16+2·4)·15 + 3·5 = 425.
			name:     "wedge-link entry@5k (ckpt K=4)",
			plan:     wedgePlan,
			doctor:   wedgeDoctor,
			ckpt:     4,
			ckptCost: 5,
		},
	}
}

// failoverPlatform assembles the two-chain platform: the primary carries the
// three streams and the fault plan, the standby sits empty with the same
// tile count (possibly slower engines).
func failoverPlatform(sc failoverScenario) (*mpsoc.MultiSystem, *mpsoc.FailoverController, error) {
	stream := func(name string) mpsoc.StreamSpec {
		return mpsoc.StreamSpec{
			Name: name, Block: 16, Decimation: 1, Reconfig: 50,
			InCapacity: 128, OutCapacity: 64,
			SourcePeriod:   75,
			Engines:        []accel.Engine{&accel.Gain{}},
			CollectOutputs: true,
		}
	}
	standbyCost := sc.standbyCost
	if standbyCost == 0 {
		standbyCost = 1
	}
	recovery := gateway.Recovery{Enabled: true, RetryLimit: 2}
	if sc.ckpt > 0 {
		recovery.Checkpoint = sc.ckpt
		recovery.CheckpointCost = sc.ckptCost
		recovery.ValueExact = true
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{
		HopLatency:     1,
		RecordActivity: true,
		Chains: []mpsoc.ChainSpec{
			{
				Name:              "primary",
				EntryCost:         15,
				ExitCost:          1,
				Mode:              gateway.ReconfigFixed,
				Accels:            []mpsoc.AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
				Streams:           []mpsoc.StreamSpec{stream("s0"), stream("s1"), stream("s2")},
				DrainTimeout:      600,
				Recovery:          recovery,
				Faults:            sc.plan,
				RecordTurnarounds: true,
			},
			{
				Name:              "standby",
				EntryCost:         15,
				ExitCost:          1,
				Mode:              gateway.ReconfigFixed,
				Accels:            []mpsoc.AccelSpec{{Name: "acc-b", Cost: sim.Time(standbyCost), NICapacity: 2}},
				Standby:           true,
				DrainTimeout:      600,
				Recovery:          recovery,
				RecordTurnarounds: true,
			},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	fc, err := mpsoc.NewFailover(ms, mpsoc.FailoverConfig{
		Primary: 0, Standby: 1,
		Model:       failoverModel(ms.Chains[0].Spec.Timing()),
		PerSlotCost: 10,
	})
	if err != nil {
		return nil, nil, err
	}
	if sc.doctor != nil {
		if _, err := fc.Arm(*sc.doctor); err != nil {
			return nil, nil, err
		}
	}
	if sc.manualAt > 0 {
		ms.K.ScheduleAt(sc.manualAt, func() { fc.Trigger("operator request") })
	}
	return ms, fc, nil
}

// contiguous verifies the identity-engine output sequence 0,1,2,...: any
// lost or duplicated sample across the migration breaks it.
func contiguous(outputs []sim.Word) bool {
	for k, w := range outputs {
		if w != sim.Word(k) {
			return false
		}
	}
	return true
}

// conformanceCut picks the post-transient window start: after the failover's
// backlog has drained (the migration freezes service for ~γ̂, so the first
// rounds on the standby work through queued blocks, to which the single-
// token turnaround bound γ̂ does not apply), or a fixed cut for scenarios
// that never fail over.
func conformanceCut(rec *mpsoc.Record) sim.Time {
	if rec != nil {
		return rec.ResumedAt + 8_000
	}
	return 20_000
}

// failoverCampaign writes the byte-deterministic campaign transcript that the
// golden gate diffs; floatflow holds it to exact output.
//
//accellint:transcript golden transcript must stay float-free
func failoverCampaign(w io.Writer, horizon sim.Time, override *fault.Plan) error {
	fmt.Fprintln(w, "Multi-chain failover campaign: 3 streams on a primary chain, empty standby")
	fmt.Fprintln(w, "pair on the same ring (ε=15, ρA=1, δ=1, Rs=50, η=16 → τ̂=320, γ̂=960; source")
	fmt.Fprintln(w, "period 75 cyc/sample; watchdog 600 cyc, retry limit 2, per-slot bus cost 10).")
	fmt.Fprintln(w, "On a wedged-chain verdict the controller freezes the sick pair, settles,")
	fmt.Fprintln(w, "migrates stream state, re-points the C-FIFOs and resumes on the standby;")
	fmt.Fprintln(w, "measured cost is checked against bound = max τ̂s + slots × bus cost.")
	fmt.Fprintln(w)

	allOK := true
	for si, sc := range failoverScenarios(override) {
		ms, fc, err := failoverPlatform(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		ms.Run(horizon)

		fmt.Fprintf(w, "--- %s\n", sc.name)
		rec := fc.Record()
		active := ms.Chains[0]
		if rec != nil {
			active = ms.Chains[1]
			within := rec.MeasuredCycles <= rec.BoundCycles
			if !within {
				allOK = false
			}
			fmt.Fprintf(w, "failover: reason=%q triggered=%d resumed=%d\n", rec.Reason, rec.TriggeredAt, rec.ResumedAt)
			fmt.Fprintf(w, "  settle=%d bus=%d measured=%d bound=%d within-bound=%v replay=%d words\n",
				rec.SettleCycles, rec.BusCycles, rec.MeasuredCycles, rec.BoundCycles, within, rec.ReplayWords)
			if rec.Resolved || rec.ResolveErr != "" {
				detail := "re-solved for the standby chain"
				if !rec.Resolved {
					detail = "kept outgoing sizes (" + rec.ResolveErr + ")"
				}
				fmt.Fprintf(w, "  re-solve: %s → blocks", detail)
				for i, n := range rec.Names {
					fmt.Fprintf(w, " %s=%d", n, rec.Blocks[i])
				}
				fmt.Fprintln(w)
			}
		} else if fc.Triggered() {
			allOK = false
			fmt.Fprintln(w, "failover: triggered but never completed")
		} else {
			fmt.Fprintln(w, "failover: not triggered (per-stream recovery handled the fault)")
		}

		fmt.Fprintf(w, "%-4s %6s %8s %11s %10s %7s %s\n",
			"strm", "block", "blocks", "samples-out", "overflows", "contig", "state")
		snaps := active.Pair.Snapshot()
		for i, snap := range snaps {
			st := active.Strs[i]
			contig := "OK"
			if !contiguous(st.Outputs) {
				contig = "BROKEN"
				allOK = false
			}
			state := "live"
			if snap.Quarantined {
				state = "quarantined"
			}
			if st.Overflows > 0 && !snap.Quarantined {
				allOK = false
			}
			fmt.Fprintf(w, "%-4s %6d %8d %11d %10d %7s %s\n",
				snap.Name, snap.Block, snap.Blocks, snap.SamplesOut, st.Overflows, contig, state)
		}

		// Conformance over the post-transient trace: τ̂ per block (retried
		// blocks exempt), γ̂ per block, μs long-run, for the live streams
		// against the ACTIVE chain's parameters and block sizes.
		model := failoverModel(active.Spec.Timing())
		var bounds []conformance.StreamBounds
		var streams []*gateway.Stream
		for i, snap := range snaps {
			if snap.Quarantined {
				continue
			}
			model.Streams[i].Block = snap.Block
			streams = append(streams, active.Strs[i].GW)
		}
		modelLive := &core.System{Chain: model.Chain, ClockHz: model.ClockHz}
		for i, snap := range snaps {
			if !snap.Quarantined {
				modelLive.Streams = append(modelLive.Streams, model.Streams[i])
			}
		}
		// Checkpointed scenarios check against the adjusted τ̂(K)/γ̂(K) and
		// additionally bound per-block replay work by K (Replayed ≤ retries·K;
		// the migrated block itself completes before the post-transient cut).
		bounds, err = conformance.FromModelCheckpointed(modelLive, sc.ckpt, uint64(sc.ckptCost))
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		opts := conformance.Options{
			After: conformanceCut(rec), SkipRetried: true, MinBlocks: 5,
		}
		if sc.ckpt > 0 {
			opts.ReplayBound = sc.ckpt
		}
		res := conformance.FromStreams(bounds, streams, opts)
		fmt.Fprintf(w, "conformance after t=%d: %d blocks checked, %d violations\n",
			conformanceCut(rec), res.Checked, len(res.Violations))
		for _, v := range res.Violations {
			allOK = false
			fmt.Fprintf(w, "  VIOLATION %s\n", v)
		}

		if si == 0 && rec != nil {
			fmt.Fprintln(w, "\nstandby activity around the failover (reconfig/stream/drain spans,")
			fmt.Fprintln(w, "failover row = controller-level freeze→resume span):")
			names := make([]string, len(snaps))
			for i, snap := range snaps {
				names[i] = snap.Name
			}
			lo, hi := rec.TriggeredAt, rec.ResumedAt+3_000
			var acts []gateway.Activity
			for _, a := range active.Pair.Activities {
				if a.End >= lo && a.Start <= hi {
					acts = append(acts, a)
				}
			}
			io.WriteString(w, trace.FromActivities(names, acts).Render(64))
		}
		fmt.Fprintln(w)
	}
	if allOK {
		fmt.Fprintln(w, "every failover landed within its bound with zero lost or duplicated")
		fmt.Fprintln(w, "samples, and every surviving stream stayed inside τ̂/γ̂/μs (Eq. 2/4/5).")
	} else {
		fmt.Fprintln(w, "WARNING: at least one scenario violated a bound or lost samples.")
	}
	return nil
}
