package main

// What serve and chaos share: one -short/-seed parser, and one campaign
// body that runs a fleet profile, writes the transcript and then applies
// the fleet acceptance, so a campaign that breaks it exits non-zero.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"accelshare/internal/campaign"
)

// fleetRenderer writes a fleet campaign's own transcript sections.
type fleetRenderer func(w io.Writer, o *campaign.Outcome, short bool)

// fleetCommand is the run function of a fleet campaign command.
func fleetCommand(name string, defaultSeed uint64, profile func(short bool, seed uint64) campaign.Fleet, render fleetRenderer) func([]string) error {
	return func(args []string) error {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		short := fs.Bool("short", false, "run the trimmed CI profile instead of the full campaign")
		seed := fs.Uint64("seed", defaultSeed, "traffic generator seed (non-zero)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *seed == 0 {
			return fmt.Errorf("-seed must be non-zero")
		}
		return fleetCampaign(os.Stdout, profile(*short, *seed), *short, render)
	}
}

// fleetCampaign writes f's byte-deterministic transcript, which floatflow
// holds to exact output, then applies the fleet acceptance.
//
//accellint:transcript golden transcript must stay float-free
func fleetCampaign(w io.Writer, f campaign.Fleet, short bool, render fleetRenderer) error {
	o, err := campaign.Run(f)
	if err != nil {
		return err
	}
	render(w, o, short)
	fmt.Fprintf(w, "\n=== fleet conformance (after t=%d) ===\n", f.Conformance.After)
	violations := 0
	for _, cc := range o.Conformance {
		fmt.Fprintf(w, "  chain %-4s %d streams, %d blocks checked, %d violations\n",
			cc.Chain, cc.Streams, cc.Result.Checked, len(cc.Result.Violations))
		for _, v := range cc.Result.Violations {
			fmt.Fprintf(w, "    %s\n", v.String())
			violations++
		}
	}
	fmt.Fprintf(w, "fleet conformance violations: %d\n", violations)
	return campaign.Check(o.Controller.LadderSteps(), o.Controller.StreamStatuses(), o.Conformance, o.Admitted, f.MinAdmitted)
}
