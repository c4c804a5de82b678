package main

// faults: the robustness campaign. A grid of deterministic fault scenarios
// (fault kind × target stream × onset) runs against a three-stream shared
// chain with watchdog recovery enabled, and the table reports per stream
// whether the fault was detected, retried, quarantined — and whether the
// healthy streams kept meeting their throughput constraint μs (zero source
// overflows) despite the disturbance.
//
// Everything is deterministic: two runs of the campaign produce
// byte-identical output (a regression test enforces it).

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"accelshare/internal/accel"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

func init() {
	register("faults", "fault-injection campaign: detection, block retry, quarantine (robustness)", runFaults)
}

func runFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	horizon := fs.Int64("horizon", 200_000, "cycles to simulate per scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *horizon <= 0 {
		// sim.Time is unsigned: a negative horizon would wrap to ~2^64 and
		// run the endless-source campaign effectively forever.
		return fmt.Errorf("-horizon must be positive, got %d", *horizon)
	}
	return faultCampaign(os.Stdout, sim.Time(*horizon))
}

// gainChain is the three-stream chain the faults and failover campaigns
// run: s0–s2 over one gain accelerator, ε=15, ρA=1, δ=1, Rs=50, η=16, so
// τ̂ = 50+18·15 = 320 (Eq. 2) and γ̂ = 960 (Eq. 4) against the 1200 cycles
// per block that a 75-cycle source period needs. Recovery retries a block
// twice under a 600-cycle watchdog; ckpt > 0 adds value-exact checkpoints
// every ckpt input samples, and the bound becomes the adjusted Eq. 2 term
// τ̂(K) = 50 + (16+2·4)·15 + 3·5 = 425 at K=4.
func gainChain(name string, plan *fault.Plan, ckpt int64) mpsoc.ChainSpec {
	rec := gateway.Recovery{Enabled: true, RetryLimit: 2}
	if ckpt > 0 {
		rec.Checkpoint, rec.CheckpointCost, rec.ValueExact = ckpt, 5, true
	}
	var streams []mpsoc.StreamSpec
	for _, s := range []string{"s0", "s1", "s2"} {
		streams = append(streams, mpsoc.StreamSpec{
			Name: s, Block: 16, Decimation: 1, Reconfig: 50,
			InCapacity: 128, OutCapacity: 64,
			SourcePeriod:   75,
			Engines:        []accel.Engine{&accel.Gain{}},
			CollectOutputs: true,
		})
	}
	return mpsoc.ChainSpec{
		Name:              name,
		EntryCost:         15,
		ExitCost:          1,
		Mode:              gateway.ReconfigFixed,
		Accels:            []mpsoc.AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
		Streams:           streams,
		DrainTimeout:      600,
		Recovery:          rec,
		Faults:            plan,
		RecordTurnarounds: true,
	}
}

// planOf is the fault plan of one fault.
func planOf(f fault.Fault) *fault.Plan { return &fault.Plan{Faults: []fault.Fault{f}} }

type faultScenario struct {
	name string
	plan *fault.Plan
	// ckpt enables checkpointed recovery with this interval (0 = plain
	// block-start retry).
	ckpt int64
}

// campaignScenarios builds the fault grid. Onsets are in absolute engine
// samples (engine faults), block numbers (lost idles) or cycles (wedges);
// wedge durations exceed two watchdog windows so detection is guaranteed.
func campaignScenarios() []faultScenario {
	scs := []faultScenario{{name: "baseline (no fault)", plan: &fault.Plan{}}}
	for stream := 0; stream < 3; stream++ {
		scs = append(scs,
			faultScenario{name: fmt.Sprintf("drop-sample s%d@24", stream),
				plan: planOf(fault.Fault{Kind: fault.DropSample, Stream: stream, Site: 0, Sample: 24})},
			faultScenario{name: fmt.Sprintf("stick-engine s%d@24", stream),
				plan: planOf(fault.Fault{Kind: fault.StickEngine, Stream: stream, Site: 0, Sample: 24})},
			faultScenario{name: fmt.Sprintf("lose-idle s%d@blk3", stream),
				plan: planOf(fault.Fault{Kind: fault.LoseIdle, Stream: stream, Block: 3})},
		)
	}
	return append(scs,
		faultScenario{name: "corrupt-sample s1@24",
			plan: planOf(fault.Fault{Kind: fault.CorruptSample, Stream: 1, Site: 0, Sample: 24, Mask: 0xFF})},
		faultScenario{name: "wedge-link entry@5k/1.5k",
			plan: planOf(fault.Fault{Kind: fault.WedgeLink, Site: 0, At: 5_000, Duration: 1_500})},
		faultScenario{name: "wedge-node entry@5k/1.5k",
			plan: planOf(fault.Fault{Kind: fault.WedgeNode, Site: 0, At: 5_000, Duration: 1_500})},
		// Checkpointed scenarios: the same transient drop now resumes from
		// the last K-sample checkpoint — the replay column shows sub-block
		// replay work (≤ K per retry) instead of full-block replay — and a
		// permanent stick still walks the retry ladder into quarantine.
		faultScenario{name: "ckpt-K4 drop-sample s0@29", ckpt: 4,
			plan: planOf(fault.Fault{Kind: fault.DropSample, Stream: 0, Site: 0, Sample: 29})},
		faultScenario{name: "ckpt-K4 stick-engine s0@24", ckpt: 4,
			plan: planOf(fault.Fault{Kind: fault.StickEngine, Stream: 0, Site: 0, Sample: 24})},
	)
}

// faultCampaign writes the byte-deterministic campaign transcript that the
// golden gate diffs; floatflow holds it to exact output.
//
//accellint:transcript golden transcript must stay float-free
func faultCampaign(w io.Writer, horizon sim.Time) error {
	fmt.Fprintln(w, "Fault-injection campaign: 3 streams share one accelerator chain")
	fmt.Fprintln(w, "(ε=15, ρA=1, δ=1, Rs=50, η=16 → τ̂=320, γ̂=960; source period 75 cyc/sample)")
	fmt.Fprintf(w, "watchdog window 600 cyc, retry limit 2, horizon %d cycles per scenario\n", horizon)
	fmt.Fprintln(w, "verdict per stream: PASS = zero source overflows (throughput constraint μs")
	fmt.Fprintln(w, "met over the whole horizon); QUARANTINED = removed after the retry budget;")
	fmt.Fprintln(w, "a quarantined stream's own FAIL is expected — the healthy ones must PASS.")
	fmt.Fprintln(w, "replay = input words re-issued by retries over the whole run: full blocks")
	fmt.Fprintln(w, "(η=16 each) without checkpointing, at most K per retry with it (ckpt-K4).")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-26s %-4s %8s %7s %8s %7s %10s %s\n",
		"scenario", "strm", "blocks", "stalls", "retries", "replay", "overflows", "verdict")

	allHealthyPass := true
	for _, sc := range campaignScenarios() {
		sys, err := mpsoc.Build(mpsoc.MultiConfig{
			HopLatency: 1,
			Chains:     []mpsoc.ChainSpec{gainChain("campaign", sc.plan, sc.ckpt)},
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		sys.Run(horizon)
		rep := sys.Report()
		for i, sr := range rep.PerStream {
			verdict := "PASS"
			switch {
			case sr.Quarantined:
				verdict = "QUARANTINED"
			case sr.Overflows > 0:
				verdict = "FAIL"
				allHealthyPass = false
			}
			var replayed int64
			for _, r := range sys.Strs[i].GW.Turnarounds {
				replayed += r.Replayed
			}
			name := ""
			if i == 0 {
				name = sc.name
			}
			fmt.Fprintf(w, "%-26s %-4s %8d %7d %8d %7d %10d %s\n",
				name, sr.Name, sr.Blocks, sr.Stalls, sr.Retries, replayed, sr.Overflows, verdict)
		}
	}
	fmt.Fprintln(w)
	if !allHealthyPass {
		fmt.Fprintln(w, "WARNING: a non-quarantined stream missed its throughput constraint.")
		return errors.New("a non-quarantined stream missed its throughput constraint")
	}
	fmt.Fprintln(w, "all non-quarantined streams met their throughput constraints in every")
	fmt.Fprintln(w, "scenario: transient faults cost one block retry (bounded by K when")
	fmt.Fprintln(w, "checkpointed), permanent faults cost one stream — never the platform.")
	return nil
}
