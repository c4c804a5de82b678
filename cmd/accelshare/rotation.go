package main

// rotation: a system-level Fig. 6 — the entry gateway's round-robin
// rotation over all four PAL streams, rendered from the recorded activity
// trace of the cycle-level simulation.

import (
	"flag"
	"fmt"
	"strings"

	"accelshare/internal/gateway"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
)

func init() {
	register("rotation", "round-robin rotation Gantt over all PAL streams (system-level Fig. 6)", runRotation)
}

func runRotation(args []string) error {
	fs := flag.NewFlagSet("rotation", flag.ContinueOnError)
	width := fs.Int("width", 110, "gantt width in columns")
	rounds := fs.Float64("seconds", 0.012, "seconds of signal to run (one RR round ≈ 3.5 ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*rounds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *rounds)
	}
	if *width < 1 {
		return fmt.Errorf("-width must be positive, got %d", *width)
	}
	p := pal.DefaultParams()
	p.Seconds = *rounds
	p.RecordActivity = true
	d, err := pal.Build(p)
	if err != nil {
		return err
	}
	d.Run(sim.Time(*rounds*p.ClockHz) * 2)
	acts := d.Sys.Pair.Activities
	if len(acts) == 0 {
		return fmt.Errorf("no gateway activity recorded")
	}

	// Window: from the first activity to the end of the third full round
	// (or everything if shorter).
	start := acts[0].Start
	end := acts[len(acts)-1].End
	names := []string{"ch1.stage1", "ch2.stage1", "ch1.stage2", "ch2.stage2"}

	fmt.Println("Round-robin rotation of the entry gateway over the four PAL streams")
	fmt.Printf("(R = reconfiguration %d cyc, # = DMA streaming, ~ = pipeline drain)\n\n", p.Reconfig)
	total := end - start
	if total == 0 {
		total = 1
	}
	col := func(t sim.Time) int {
		c := int(uint64(*width) * (t - start) / total)
		if c >= *width {
			c = *width - 1
		}
		return c
	}
	for si, name := range names {
		row := []byte(strings.Repeat(".", *width))
		for _, a := range acts {
			if a.Stream != si {
				continue
			}
			ch := byte('#')
			switch a.Kind {
			case gateway.ActReconfig:
				ch = 'R'
			case gateway.ActDrain:
				ch = '~'
			}
			for c := col(a.Start); c <= col(a.End); c++ {
				// Reconfiguration and drain are short; let them win the
				// column so they stay visible.
				if row[c] == '.' || ch != '#' {
					row[c] = ch
				}
			}
		}
		fmt.Printf("%-12s %s\n", name, row)
	}
	fmt.Printf("%-12s t=%d .. t=%d (%d cycles, %.0f cycles/col)\n", "", start, end, total, float64(total)/float64(*width))

	// Round statistics: time between consecutive services of stream 0.
	var rstarts []sim.Time
	for _, a := range acts {
		if a.Stream == 0 && a.Kind == gateway.ActReconfig {
			rstarts = append(rstarts, a.Start)
		}
	}
	if len(rstarts) >= 2 {
		fmt.Printf("\nrotation period of ch1.stage1: ")
		for i := 1; i < len(rstarts) && i <= 5; i++ {
			fmt.Printf("%d ", rstarts[i]-rstarts[i-1])
		}
		round := uint64(16400 + 15*(2*(9848+2)+2*(1232+2)))
		fmt.Printf("cycles (analytic full-load round Σ τ̂ = %d; small overshoots are the\n", round)
		fmt.Println("idle-notification transits between blocks, which the per-block turnaround")
		fmt.Println("bound γ̂ absorbs in its 2·c0 flush slack — see `accelshare utilization`)")
	}
	fmt.Println("\nnote the asymmetric rotation: stage-1 blocks (≈9848·15 cycles of streaming)")
	fmt.Println("dwarf stage-2 blocks (≈1232·15) and the Rs = 4100-cycle reconfigurations —")
	fmt.Println("the 95/5 streaming/reconfig split of `accelshare utilization`, visualised.")
	return nil
}
