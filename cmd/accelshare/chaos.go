package main

// chaos: the fleet-level robustness soak (profile: campaign.Chaos). The
// transcript is the raw fleet event log, every degradation-ladder step
// against its composed bound, the chains and every stream, then the fleet
// conformance section; two runs are byte-identical.

import (
	"fmt"
	"io"
	"sort"

	"accelshare/internal/campaign"
	"accelshare/internal/cluster"
	"accelshare/internal/sim"
)

func init() {
	register("chaos", "fleet chaos soak: rolling chain kills, degradation ladder, fleet conformance",
		fleetCommand("chaos", 1789, campaign.Chaos, renderChaos))
}

// renderChaos writes the chaos transcript's own sections. The kills header
// reads the chains' fault plans, in time order.
//
//accellint:transcript golden transcript must stay float-free
func renderChaos(w io.Writer, o *campaign.Outcome, short bool) {
	name := "full soak"
	if short {
		name = "short profile"
	}
	c, chains := o.Controller, o.Fleet.Config.Chains
	fmt.Fprintf(w, "chaos — fleet-level robustness soak (%s, seed %d, horizon %d)\n", name, o.Fleet.Traffic.Seed, o.Fleet.Horizon)
	fmt.Fprintf(w, "fleet:")
	for _, cs := range chains {
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
	type kill struct {
		chain string
		at    sim.Time
	}
	var kills []kill
	for _, cs := range chains {
		if cs.Faults != nil {
			for _, f := range cs.Faults.Faults {
				kills = append(kills, kill{cs.Name, f.At})
			}
		}
	}
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].at < kills[j].at })
	fmt.Fprintf(w, "kills:")
	for _, k := range kills {
		fmt.Fprintf(w, " %s@%d", k.chain, k.at)
	}
	fmt.Fprintf(w, "  flash: %d@%d\n\n", o.Fleet.Traffic.FlashCount, o.Fleet.Traffic.FlashAt)

	fmt.Fprintf(w, "=== traffic (%d ops) and fleet events ===\n", len(o.Ops))
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
}
