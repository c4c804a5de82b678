package main

// serve: the sustained-serving campaign (profile: campaign.Serve). With
// ~10^3 lifetimes a raw event log would drown the signal, so the
// transcript is aggregated: a traffic summary, the per-tick spread
// timeline, the full rebalance move table, final chain telemetry and a
// stream summary, then the fleet conformance section. Two runs are
// byte-identical.

import (
	"fmt"
	"io"

	"accelshare/internal/campaign"
	"accelshare/internal/cluster"
	"accelshare/internal/core"
)

func init() {
	register("serve", "sustained serving campaign: open-loop traffic, diurnal ramp, live rebalancing",
		fleetCommand("serve", 24601, campaign.Serve, renderServe))
}

// renderServe writes the serve transcript's own sections.
//
//accellint:transcript golden transcript must stay float-free
func renderServe(w io.Writer, o *campaign.Outcome, short bool) {
	name := "full campaign"
	if short {
		name = "short profile"
	}
	c, tr, rb := o.Controller, o.Fleet.Traffic, o.Fleet.Config.Rebalance
	fmt.Fprintf(w, "serve — sustained fleet serving campaign (%s, seed %d, horizon %d)\n", name, tr.Seed, o.Fleet.Horizon)
	fmt.Fprintf(w, "fleet:")
	for _, cs := range o.Fleet.Config.Chains {
		fmt.Fprintf(w, " %s(rho=%d)", cs.Name, cs.AccelCost)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "traffic: arrivals in [%d,%d] spacing~%d lifetimes [%d,%d] periods=%v\n",
		tr.Start, tr.End, tr.MeanSpacing, tr.MinLifetime, tr.MeanLifetime, tr.Periods)
	fmt.Fprintf(w, "         diurnal %d/%d%%  flash %d@%d (persistent)\n",
		tr.DiurnalPeriod, tr.DiurnalAmplitude, tr.FlashCount, tr.FlashAt)
	fmt.Fprintf(w, "rebalance: every %d in [%d,%d] high-water=%s moves/tick<=%d\n\n",
		rb.Every, rb.Start, rb.Stop, rb.HighWater.RatString(), rb.MaxMovesPerTick)

	arrivals, departures := 0, 0
	for _, op := range o.Ops {
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
		var min, max core.Load
		serving := false
		for _, ct := range fs.Chains {
			if ct.State != "serving" {
				continue
			}
			if !serving || ct.Util.Cmp(min) < 0 {
				min = ct.Util
			}
			if !serving || ct.Util.Cmp(max) > 0 {
				max = ct.Util
			}
			serving = true
		}
		if serving {
			lo, hi = min.Rat().RatString(), max.Rat().RatString()
		}
		fmt.Fprintf(w, "%9d %12s %12s %12s %7d %7d\n",
			fs.At, fs.Spread.Rat().RatString(), lo, hi, fs.Parked, fs.Placing)
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
		if ct.State == "serving" {
			util = ct.Util.Rat().RatString()
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
}
