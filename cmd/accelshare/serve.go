package main

// serve: the sustained-serving campaign — the rebalancer's acceptance
// artifact, the way chaos is the degradation ladder's. A fleet of
// heterogeneous chains serves a long-horizon open-loop traffic mix:
// thousands of background stream lifetimes (arrival/departure processes
// drawn from a seeded xorshift generator), a diurnal ramp that compresses
// the arrival spacing toward mid-cycle, and one persistent flash crowd.
// The periodic rebalancer watches the fleet's exact utilisation spread and
// migrates streams hot when it exceeds the high-water mark; every move is
// measured against its composed bound (remove + settle + admit envelopes +
// charged backoffs).
//
// Unlike the chaos transcript, the serve transcript is AGGREGATED — with
// ~10^3 lifetimes a raw event log would drown the signal — but it is still
// a pure function of the profile: a traffic summary, the per-tick spread
// timeline, the full rebalance move table, final chain telemetry and a
// fleet-wide Eq. 2/4/5 conformance pass over the post-warm-up tail. Two
// runs are byte-identical (golden-tested, short profile raced in CI).

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"

	"accelshare/internal/cluster"
	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

func init() {
	register("serve", "sustained serving campaign: open-loop traffic, diurnal ramp, live rebalancing", runServe)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	short := fs.Bool("short", false, "run the trimmed CI profile instead of the full campaign")
	seed := fs.Uint64("seed", 24601, "traffic generator seed (non-zero)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be non-zero")
	}
	return serveCampaign(os.Stdout, *short, *seed)
}

// serveProfile bundles the campaign shape so the short CI profile and the
// full campaign share one code path.
type serveProfile struct {
	horizon   sim.Time
	chains    []cluster.ChainSpec
	traffic   cluster.Profile
	rebalance cluster.RebalanceConfig
	cut       sim.Time // conformance window start (past the last disturbance)
	// minAdmitted fails the campaign when fewer background streams were
	// actually admitted than the profile promises (full: >= 1000) — offered
	// load does not count; a rejected arrival never lived on the fleet.
	minAdmitted int
}

// serveSoak is the full campaign: eight chains (six fast, two slow), over
// a thousand admitted background lifetimes across ~2M cycles, four diurnal
// cycles, and a flash crowd at 900k that stays for the rest of the run.
// The arrival spacing is sized against the fleet's admission throughput —
// every admission and departure is a serialised drain-and-reconfigure
// transition on its chain, so pushing the spacing far below that just
// converts offered load into rejections. Background traffic ends at 1.7M
// and the rebalancer stops at 1.75M, so the 1.78M conformance cut sees
// only the settled fleet (residents + the crowd).
func serveSoak(seed uint64) serveProfile {
	return serveProfile{
		horizon: 1_900_000,
		chains: []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 8},
			{Name: "c1", AccelCost: 1, ReserveSlots: 8},
			{Name: "c2", AccelCost: 1, ReserveSlots: 8},
			{Name: "c3", AccelCost: 1, ReserveSlots: 8},
			{Name: "c4", AccelCost: 1, ReserveSlots: 8},
			{Name: "c5", AccelCost: 1, ReserveSlots: 8},
			{Name: "c6", AccelCost: 25, ReserveSlots: 8},
			{Name: "c7", AccelCost: 25, ReserveSlots: 8},
		},
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 1_700_000,
			MeanSpacing: 1_500, MinLifetime: 20_000, MeanLifetime: 40_000,
			Periods:    []int64{300, 600},
			Priorities: []int{1, 3, 5},
			// Four diurnal cycles: spacing compresses by up to 50% mid-cycle.
			DiurnalPeriod: 400_000, DiurnalAmplitude: 50,
			// The crowd lands mid-run and never leaves (FlashLifetime 0):
			// the fleet must absorb the permanent load shift and the
			// rebalancer must keep the spread bounded around it.
			FlashAt: 900_000, FlashCount: 8, FlashSpacing: 200,
			FlashPeriod: 300, FlashLifetime: 0,
		},
		rebalance: cluster.RebalanceConfig{
			Every: 25_000, Start: 50_000, Stop: 1_750_000,
			HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
		},
		cut:         1_780_000,
		minAdmitted: 1_000,
	}
}

// serveShort is the CI profile: six chains, a few dozen lifetimes, one
// diurnal cycle and a small persistent crowd — small enough to race.
func serveShort(seed uint64) serveProfile {
	return serveProfile{
		horizon: 120_000,
		chains: []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 6},
			{Name: "c1", AccelCost: 1, ReserveSlots: 6},
			{Name: "c2", AccelCost: 1, ReserveSlots: 6},
			{Name: "c3", AccelCost: 1, ReserveSlots: 6},
			{Name: "c4", AccelCost: 25, ReserveSlots: 6},
			{Name: "c5", AccelCost: 25, ReserveSlots: 6},
		},
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 60_000,
			MeanSpacing: 2_000, MinLifetime: 10_000, MeanLifetime: 20_000,
			Periods:       []int64{300, 600},
			Priorities:    []int{1, 5},
			DiurnalPeriod: 60_000, DiurnalAmplitude: 50,
			FlashAt: 40_000, FlashCount: 4, FlashSpacing: 200,
			FlashPeriod: 300, FlashLifetime: 0,
		},
		rebalance: cluster.RebalanceConfig{
			Every: 5_000, Start: 20_000, Stop: 85_000,
			HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
		},
		cut:         90_000,
		minAdmitted: 20,
	}
}

// serveConfig mirrors chaosConfig's fleet parameters (one shared fixture
// keeps the campaign surface comparable) with the rebalancer armed.
func serveConfig(p serveProfile) cluster.Config {
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
		PerSlotCost:      10,
		Doctor:           fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1},
		Retry:            fault.Backoff{Base: 200, Factor: 2, Cap: 3_200, Limit: 8},
		ResidentPeriod:   150,
		ResidentPriority: 100,
		InCapacity:       512,
		OutCapacity:      256,
		CollectOutputs:   true,
		ReclaimSlots:     true,
		Rebalance:        p.rebalance,
		Chains:           p.chains,
	}
}

// serveCampaign writes the byte-deterministic campaign transcript that the
// golden gate diffs; floatflow holds it to exact output.
//
//accellint:transcript golden transcript must stay float-free
func serveCampaign(w io.Writer, short bool, seed uint64) error {
	p := serveSoak(seed)
	name := "full campaign"
	if short {
		p = serveShort(seed)
		name = "short profile"
	}
	tr := p.traffic
	fmt.Fprintf(w, "serve — sustained fleet serving campaign (%s, seed %d, horizon %d)\n", name, seed, p.horizon)
	fmt.Fprintf(w, "fleet:")
	for _, cs := range p.chains {
		fmt.Fprintf(w, " %s(rho=%d)", cs.Name, cs.AccelCost)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "traffic: arrivals in [%d,%d] spacing~%d lifetimes [%d,%d] periods=%v\n",
		tr.Start, tr.End, tr.MeanSpacing, tr.MinLifetime, tr.MeanLifetime, tr.Periods)
	fmt.Fprintf(w, "         diurnal %d/%d%%  flash %d@%d (persistent)\n",
		tr.DiurnalPeriod, tr.DiurnalAmplitude, tr.FlashCount, tr.FlashAt)
	fmt.Fprintf(w, "rebalance: every %d in [%d,%d] high-water=%s moves/tick<=%d\n\n",
		p.rebalance.Every, p.rebalance.Start, p.rebalance.Stop,
		p.rebalance.HighWater.RatString(), p.rebalance.MaxMovesPerTick)

	c, err := cluster.New(serveConfig(p))
	if err != nil {
		return err
	}
	ops := p.traffic.Ops()
	cluster.Schedule(c, ops)
	c.Run(p.horizon)

	arrivals, departures := 0, 0
	for _, op := range ops {
		if op.Depart {
			departures++
		} else {
			arrivals++
		}
	}
	arrivals -= tr.FlashCount // background only; the crowd is reported apart
	counts := map[cluster.EventKind]int{}
	for _, e := range c.Events() {
		counts[e.Kind]++
	}
	fmt.Fprintf(w, "=== traffic summary ===\n")
	fmt.Fprintf(w, "background lifetimes: %d (departures scheduled %d)  flash arrivals: %d\n",
		arrivals, departures, tr.FlashCount)
	fmt.Fprintf(w, "admitted=%d rejected=%d departed=%d shed=%d readmitted=%d lost=%d retries=%d\n",
		counts[cluster.EvArrive], counts[cluster.EvReject], counts[cluster.EvDepart],
		counts[cluster.EvShed], counts[cluster.EvReadmit], counts[cluster.EvLost], counts[cluster.EvRetry])

	fleet := c.FleetLog()
	fmt.Fprintf(w, "\n=== utilisation spread timeline (%d ticks) ===\n", len(fleet))
	fmt.Fprintf(w, "%9s %12s %12s %12s %7s %7s\n", "at", "spread", "min-util", "max-util", "parked", "placing")
	for _, fs := range fleet {
		lo, hi := "-", "-"
		var min, max *big.Rat
		for _, ct := range fs.Chains {
			if ct.Util == nil {
				continue
			}
			if min == nil || ct.Util.Cmp(min) < 0 {
				min = ct.Util
			}
			if max == nil || ct.Util.Cmp(max) > 0 {
				max = ct.Util
			}
		}
		if min != nil {
			lo, hi = min.RatString(), max.RatString()
		}
		fmt.Fprintf(w, "%9d %12s %12s %12s %7d %7d\n",
			fs.At, fs.Spread.RatString(), lo, hi, fs.Parked, fs.Placing)
	}

	moves := 0
	allWithin := true
	fmt.Fprintf(w, "\n=== rebalance moves ===\n")
	fmt.Fprintf(w, "%-8s %-4s %-4s %9s %9s %9s  %s\n",
		"stream", "from", "to", "at", "measured", "bound", "within-bound")
	for _, s := range c.LadderSteps() {
		if s.Rung != "rebalance" {
			continue
		}
		moves++
		within := s.Measured <= s.Bound
		if !within {
			allWithin = false
		}
		fmt.Fprintf(w, "%-8s %-4s %-4s %9d %9d %9d  within-bound=%v replay=%d\n",
			s.Stream, s.From, s.To, s.At, s.Measured, s.Bound, within, s.Replay)
	}
	fmt.Fprintf(w, "rebalance ticks=%d plans=%d completed moves=%d\n",
		len(fleet), counts[cluster.EvRebalance], counts[cluster.EvRebalanced])
	fmt.Fprintf(w, "all rebalance moves within composed bound: %v\n", allWithin)

	final := c.Stats()
	fmt.Fprintf(w, "\n=== chains (final telemetry) ===\n")
	for _, ct := range final.Chains {
		util := "-"
		if ct.Util != nil {
			util = ct.Util.RatString()
		}
		fmt.Fprintf(w, "  %-4s %-8s %2d streams  util=%-8s bufpeak=%d\n",
			ct.Name, ct.State, ct.Streams, util, ct.BufferPeak)
	}

	byState := map[string]int{}
	var blocks, samples, overflows uint64
	contiguityOK := true
	for _, ss := range c.StreamStatuses() {
		byState[ss.State]++
		blocks += ss.Blocks
		samples += ss.Samples
		overflows += ss.Overflow
		if ss.State == "live" && !ss.ContiguousOutputs {
			contiguityOK = false
			fmt.Fprintf(w, "  NON-CONTIGUOUS %s\n", ss.Name)
		}
	}
	fmt.Fprintf(w, "\n=== stream summary ===\n")
	fmt.Fprintf(w, "live=%d departed=%d parked=%d rejected=%d placing=%d\n",
		byState["live"], byState["departed"], byState["parked"], byState["rejected"], byState["placing"])
	fmt.Fprintf(w, "blocks=%d samples=%d overflows=%d\n", blocks, samples, overflows)
	fmt.Fprintf(w, "every live stream contiguous (zero lost or duplicated samples): %v\n", contiguityOK)

	fmt.Fprintf(w, "\n=== fleet conformance (after t=%d) ===\n", p.cut)
	res, err := c.Conformance(conformance.Options{
		After: p.cut, MinBlocks: 3, FilterQueued: true,
		ReplayBound: int64(serveConfig(p).Recovery.Checkpoint),
	})
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

	if admitted := counts[cluster.EvArrive]; admitted < p.minAdmitted {
		return fmt.Errorf("%d admitted background lifetimes, want >= %d", admitted, p.minAdmitted)
	}
	if !allWithin {
		return fmt.Errorf("a rebalance move exceeded its composed bound")
	}
	if !contiguityOK {
		return fmt.Errorf("a live stream lost or duplicated samples")
	}
	if violations > 0 {
		return fmt.Errorf("%d fleet conformance violations", violations)
	}
	return nil
}
