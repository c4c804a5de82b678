package main

// chaos: the fleet-level robustness soak. A heterogeneous cluster of
// accelerator chains (two fast, two slow, one warm spare, one spare that
// comes online late) serves deterministic open-loop traffic — background
// arrivals and departures plus one flash crowd — while a rolling sequence
// of chain kills walks the control plane down its degradation ladder:
//
//	kill #1 hits while a spare is available      → failover  (rung 1)
//	kill #2 hits with no spare left              → evacuate  (rung 2)
//	kill #3 squeezes capacity below demand       → shed      (rung 3)
//	a late spare heals into the fleet            → readmit
//
// Every ladder step is recorded with its measured cost against a composed
// bound (DESIGN § Fleet robustness); the campaign ends with a fleet-wide
// conformance pass (Eq. 2/4/5 per surviving chain) over the post-disturbance
// tail and a per-stream contiguity check across every migration. The whole
// soak is a pure function of the profile: two runs are byte-identical (a
// golden test enforces it).

import (
	"flag"
	"fmt"
	"io"
	"os"

	"accelshare/internal/cluster"
	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

func init() {
	register("chaos", "fleet chaos soak: rolling chain kills, degradation ladder, fleet conformance", runChaos)
}

func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	short := fs.Bool("short", false, "run the trimmed CI profile instead of the full soak")
	seed := fs.Uint64("seed", 1789, "traffic generator seed (non-zero)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be non-zero")
	}
	return chaosCampaign(os.Stdout, *short, *seed)
}

// chaosProfile bundles the campaign shape so the short CI profile and the
// full soak share one code path.
type chaosProfile struct {
	horizon sim.Time
	// kills maps chain name -> wedge time; heals is the late spare's online
	// time (also printed in the header).
	chains  []cluster.ChainSpec
	kills   []string // rendered header lines, chain order
	traffic cluster.Profile
	cut     sim.Time // conformance window start
}

func chaosSoak(seed uint64) chaosProfile {
	wedge := func(at sim.Time) *fault.Plan {
		return &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: at}}}
	}
	return chaosProfile{
		horizon: 215_000,
		chains: []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 6, Faults: wedge(40_000)},
			{Name: "c1", AccelCost: 1, ReserveSlots: 6, Faults: wedge(120_000)},
			{Name: "c2", AccelCost: 25, ReserveSlots: 6, Faults: wedge(90_000)},
			{Name: "c3", AccelCost: 25, ReserveSlots: 6},
			{Name: "sp0", AccelCost: 1, ReserveSlots: 6, Spare: true},
			{Name: "sp1", AccelCost: 1, ReserveSlots: 6, Spare: true, OnlineAt: 150_000},
		},
		kills: []string{"c0@40000", "c2@90000", "c1@120000"},
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 110_000,
			// Lifetime <= 60k: the last transient departs by ~170k, so the
			// conformance cut at 175k sees only the settled resident fleet.
			MeanSpacing: 7_000, MinLifetime: 30_000, MeanLifetime: 45_000,
			Periods: []int64{75, 150, 300}, Priorities: []int{1, 3, 5},
			// The flash crowd lands just before kill #3 saturates the two
			// survivors, so c1's evacuation must shed — the parked stream is
			// only readmitted when sp1 heals at 150k.
			FlashAt: 112_000, FlashCount: 4, FlashSpacing: 150,
			FlashPeriod: 150, FlashLifetime: 30_000,
		},
		cut: 175_000,
	}
}

func chaosShort(seed uint64) chaosProfile {
	wedge := func(at sim.Time) *fault.Plan {
		return &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: at}}}
	}
	return chaosProfile{
		horizon: 90_000,
		chains: []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge(15_000)},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4, Faults: wedge(35_000)},
			{Name: "sp0", AccelCost: 1, ReserveSlots: 4, Spare: true},
			{Name: "sp1", AccelCost: 1, ReserveSlots: 4, Spare: true, OnlineAt: 55_000},
		},
		kills: []string{"c0@15000", "c1@35000"},
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 30_000,
			// Lifetime <= 40k keeps every transient departure before the 70k cut.
			MeanSpacing: 5_000, MinLifetime: 20_000, MeanLifetime: 30_000,
			Periods: []int64{75, 150}, Priorities: []int{1, 5},
			FlashAt: 25_000, FlashCount: 3, FlashSpacing: 150,
			FlashPeriod: 150, FlashLifetime: 20_000,
		},
		cut: 70_000,
	}
}

func chaosConfig(chains []cluster.ChainSpec) cluster.Config {
	return cluster.Config{
		EntryCost:    15,
		ExitCost:     1,
		HopLatency:   1,
		Reconfig:     50,
		DrainTimeout: 600,
		Recovery: gateway.Recovery{
			Enabled: true, RetryLimit: 2,
			Checkpoint: 4, CheckpointCost: 5, ValueExact: true,
		},
		PerSlotCost: 10,
		Doctor:      fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1},
		// Limit 5 exhausts a shed stream's readmission retries (~6.2k cycles)
		// before surviving chains free capacity, so it parks and is readmitted
		// by the late spare's heal — exercising the full ladder.
		Retry:            fault.Backoff{Base: 200, Factor: 2, Cap: 3_200, Limit: 5},
		ResidentPeriod:   75,
		ResidentPriority: 100,
		InCapacity:       256,
		OutCapacity:      128,
		CollectOutputs:   true,
		Chains:           chains,
	}
}

// chaosCampaign writes the byte-deterministic campaign transcript that the
// golden gate diffs; floatflow holds it to exact output.
//
//accellint:transcript golden transcript must stay float-free
func chaosCampaign(w io.Writer, short bool, seed uint64) error {
	p := chaosSoak(seed)
	name := "full soak"
	if short {
		p = chaosShort(seed)
		name = "short profile"
	}
	fmt.Fprintf(w, "chaos — fleet-level robustness soak (%s, seed %d, horizon %d)\n", name, seed, p.horizon)
	fmt.Fprintf(w, "fleet:")
	for _, cs := range p.chains {
		role := "serving"
		if cs.Spare {
			role = "spare"
			if cs.OnlineAt > 0 {
				role = fmt.Sprintf("spare@%d", cs.OnlineAt)
			}
		}
		fmt.Fprintf(w, " %s(rho=%d,%s)", cs.Name, cs.AccelCost, role)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "kills:")
	for _, k := range p.kills {
		fmt.Fprintf(w, " %s", k)
	}
	fmt.Fprintf(w, "  flash: %d@%d\n\n", p.traffic.FlashCount, p.traffic.FlashAt)

	c, err := cluster.New(chaosConfig(p.chains))
	if err != nil {
		return err
	}
	ops := p.traffic.Ops()
	cluster.Schedule(c, ops)
	c.Run(p.horizon)

	fmt.Fprintf(w, "=== traffic (%d ops) and fleet events ===\n", len(ops))
	for _, e := range c.Events() {
		fmt.Fprintln(w, cluster.FormatEvent(e))
	}

	fmt.Fprintf(w, "\n=== degradation ladder (%d steps) ===\n", len(c.LadderSteps()))
	fmt.Fprintf(w, "%-9s %-8s %-5s %-5s %9s %9s %9s  %s\n",
		"rung", "stream", "from", "to", "at", "measured", "bound", "within-bound")
	allWithin := true
	for _, s := range c.LadderSteps() {
		within := s.Measured <= s.Bound
		if !within {
			allWithin = false
		}
		from, to := s.From, s.To
		if from == "" {
			from = "-"
		}
		if to == "" {
			to = "-"
		}
		fmt.Fprintf(w, "%-9s %-8s %-5s %-5s %9d %9d %9d  within-bound=%v replay=%d\n",
			s.Rung, s.Stream, from, to, s.At, s.Measured, s.Bound, within, s.Replay)
	}
	fmt.Fprintf(w, "all ladder steps within bound: %v\n", allWithin)

	fmt.Fprintf(w, "\n=== chains ===\n")
	for _, cs := range c.ChainStatuses() {
		fmt.Fprintf(w, "  %-4s %-8s %d streams\n", cs.Name, cs.State, cs.Streams)
	}

	fmt.Fprintf(w, "\n=== streams ===\n")
	contiguityOK := true
	for _, ss := range c.StreamStatuses() {
		chain := ss.Chain
		if chain == "" {
			chain = "-"
		}
		line := fmt.Sprintf("  %-8s %-9s chain=%-4s prio=%d blocks=%d samples=%d overflows=%d",
			ss.Name, ss.State, chain, ss.Priority, ss.Blocks, ss.Samples, ss.Overflow)
		if ss.State == "live" {
			line += fmt.Sprintf(" contiguous=%v", ss.ContiguousOutputs)
			if !ss.ContiguousOutputs {
				contiguityOK = false
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "every live stream contiguous (zero lost or duplicated samples): %v\n", contiguityOK)

	fmt.Fprintf(w, "\n=== fleet conformance (after t=%d) ===\n", p.cut)
	res, err := c.Conformance(conformance.Options{After: p.cut, MinBlocks: 3, FilterQueued: true})
	if err != nil {
		return err
	}
	violations := 0
	for _, cc := range res {
		fmt.Fprintf(w, "  chain %-4s %d streams, %d blocks checked, %d violations\n",
			cc.Chain, cc.Streams, cc.Result.Checked, len(cc.Result.Violations))
		for _, v := range cc.Result.Violations {
			fmt.Fprintf(w, "    %s\n", v.String())
			violations++
		}
	}
	fmt.Fprintf(w, "fleet conformance violations: %d\n", violations)

	if !allWithin {
		return fmt.Errorf("a degradation-ladder step exceeded its composed bound")
	}
	if !contiguityOK {
		return fmt.Errorf("a surviving stream lost or duplicated samples")
	}
	if violations > 0 {
		return fmt.Errorf("%d fleet conformance violations", violations)
	}
	return nil
}
