package main

// admit: the online admission-control demo. A four-stream platform runs
// live while a scripted campaign adds a fifth stream, removes one, readmits
// it through a canary block and finally offers an infeasible sixth request.
// Every decision — the incremental Algorithm 1 re-solve, the staged mode
// transition with its measured cost against the bound, each rejection's
// machine-readable reason — lands in the controller's event log, printed
// here. The whole run is deterministic: two invocations with the same
// script produce byte-identical output (a regression test enforces it).

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"

	"accelshare/internal/accel"
	"accelshare/internal/admission"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

func init() {
	register("admit", "online admission control: scripted add/remove/readmit with mode transitions", runAdmit)
}

// defaultAdmitScript exercises every request kind against the canned
// platform: a feasible add, a remove that shrinks the survivors' blocks, a
// canary-probed readmission, and an add that Algorithm 1 must reject.
const defaultAdmitScript = `# online admission campaign (times in cycles)
3000  add s5 rate=1/300 reconfig=50 incap=64 outcap=64 period=300
20000 remove s4
30000 readmit s4
40000 add s6 rate=1/75 reconfig=50 incap=64 outcap=64 period=75
`

func runAdmit(args []string) error {
	fs := flag.NewFlagSet("admit", flag.ContinueOnError)
	script := fs.String("script", "", "admission script file (default: built-in demo campaign)")
	horizon := fs.Int64("horizon", 60_000, "cycles to simulate")
	reserve := fs.Int("reserve", 2, "reserved gateway stream slots for live admission")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *horizon <= 0 {
		return fmt.Errorf("-horizon must be positive, got %d", *horizon)
	}
	text := defaultAdmitScript
	if *script != "" {
		raw, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		text = string(raw)
	}
	return admitCampaign(os.Stdout, text, sim.Time(*horizon), *reserve)
}

// admitPlatform builds the canned four-stream platform (ε=15, ρA=1, δ=1,
// Rs=50, μs=1/75 each → Algorithm 1 gives η=22, τ̂=410, γ̂=1640) plus its
// admission controller.
func admitPlatform(reserve int) (*mpsoc.MultiSystem, *admission.Controller, error) {
	chain := mpsoc.ChainSpec{
		Name:              "demo",
		EntryCost:         15,
		ExitCost:          1,
		Mode:              gateway.ReconfigFixed,
		Accels:            []mpsoc.AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
		DrainTimeout:      200,
		Recovery:          gateway.Recovery{Enabled: true, RetryLimit: 2},
		RecordTurnarounds: true,
		ReserveSlots:      reserve,
	}
	model := &core.System{Chain: chain.Timing(), ClockHz: 1}
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		model.Streams = append(model.Streams, core.Stream{
			Name: name, Rate: big.NewRat(1, 75), Reconfig: 50,
		})
	}
	if _, err := model.ComputeBlockSizes(); err != nil {
		return nil, nil, err
	}
	for i := range model.Streams {
		chain.Streams = append(chain.Streams, mpsoc.StreamSpec{
			Name:         model.Streams[i].Name,
			Block:        model.Streams[i].Block,
			Decimation:   1,
			Reconfig:     50,
			InCapacity:   128,
			OutCapacity:  128,
			SourcePeriod: 75,
			Engines:      []accel.Engine{&accel.Gain{}},
		})
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{Chains: []mpsoc.ChainSpec{chain}})
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := admission.New(ms, admission.Config{
		Chain:       0,
		Model:       model,
		PerSlotCost: 10,
		Engines:     func(string) []accel.Engine { return []accel.Engine{&accel.Gain{}} },
	})
	if err != nil {
		return nil, nil, err
	}
	return ms, ctrl, nil
}

// admitCampaign writes the byte-deterministic campaign transcript that the
// golden gate diffs; floatflow holds it to exact output.
//
//accellint:transcript golden transcript must stay float-free
func admitCampaign(w io.Writer, script string, horizon sim.Time, reserve int) error {
	ops, err := admission.ParseScript(script)
	if err != nil {
		return err
	}
	ms, ctrl, err := admitPlatform(reserve)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Online admission control: 4 live streams share one accelerator chain")
	fmt.Fprintln(w, "(ε=15, ρA=1, δ=1, Rs=50, μs=1/75 each → η=22, τ̂=410, γ̂=1640), with")
	fmt.Fprintf(w, "%d reserved gateway slot(s) for live admission; horizon %d cycles.\n", reserve, horizon)
	fmt.Fprintln(w, "Each request re-solves Algorithm 1 incrementally (exact least fixed point,")
	fmt.Fprintln(w, "warm-started from the committed blocks) and applies the result as a staged")
	fmt.Fprintln(w, "mode transition: drain to a block boundary, reprogram stream slots over")
	fmt.Fprintln(w, "the configuration bus, resume. Decisions, in order:")
	fmt.Fprintln(w)
	if err := ctrl.Play(ops); err != nil {
		return err
	}
	ms.Chains[0].Pair.Start()
	ms.K.Run(horizon)
	io.WriteString(w, admission.FormatEvents(ctrl.Events()))
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-6s %6s %8s %10s %11s %8s %10s %s\n",
		"stream", "block", "blocks", "samples-in", "samples-out", "retries", "overflows", "state")
	ch := ms.Chains[0]
	for i, snap := range ch.Pair.Snapshot() {
		state := "live"
		switch {
		case snap.Quarantined:
			state = "quarantined"
		case snap.Suspended:
			state = "suspended"
		case snap.Probation:
			state = "probation"
		}
		fmt.Fprintf(w, "%-6s %6d %8d %10d %11d %8d %10d %s\n",
			snap.Name, snap.Block, snap.Blocks, snap.SamplesIn, snap.SamplesOut,
			snap.Retries, ch.Strs[i].Overflows, state)
	}
	return nil
}
