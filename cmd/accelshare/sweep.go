package main

// sharing-sweep: the design-space experiment the paper's numbers imply but
// never tabulates — how the degree of sharing trades hardware area against
// block sizes (buffer memory) and worst-case latency. The paper's
// demonstrator sits at one end (all four streams on one gateway pair);
// private accelerators sit at the other (Table I's non-shared column).

import (
	"flag"
	"fmt"
	"math/big"

	"accelshare/internal/core"
	"accelshare/internal/cost"
)

func init() {
	register("sharing-sweep", "sharing degree vs area, block sizes and latency (design space around §VI)", runSharingSweep)
}

// sweepChain builds a PAL-parameter analysis system for the given stream
// subset (rates in S/s).
func sweepChain(name string, rates []int64, clockHz int64) *core.System {
	s := &core.System{
		Chain: core.Chain{
			Name:       name,
			AccelCosts: []uint64{1, 1},
			EntryCost:  15,
			ExitCost:   1,
		},
		ClockHz: clockHz,
	}
	for i, r := range rates {
		s.Streams = append(s.Streams, core.Stream{
			Name:     fmt.Sprintf("%s.s%d", name, i),
			Rate:     big.NewRat(r, 1),
			Reconfig: 4100,
		})
	}
	return s
}

func runSharingSweep(args []string) error {
	fs := flag.NewFlagSet("sharing-sweep", flag.ContinueOnError)
	clock := fs.Int64("clock", 100_000_000, "platform clock in Hz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clock <= 0 {
		return fmt.Errorf("-clock must be positive, got %d", *clock)
	}
	const (
		fast = 44100 * 64
		slow = 44100 * 8
	)
	comps := cost.PaperComponents()
	accelSet := comps[cost.FIRDownsample].Add(comps[cost.CORDIC])
	gw := cost.GatewayPair()

	type config struct {
		name   string
		chains [][]int64 // stream rates per gateway pair
	}
	configs := []config{
		{"1 pair × 4 streams (paper §VI)", [][]int64{{fast, fast, slow, slow}}},
		{"2 pairs × 2 streams (per stage)", [][]int64{{fast, fast}, {slow, slow}}},
		{"2 pairs × 2 streams (per channel)", [][]int64{{fast, slow}, {fast, slow}}},
		{"4 pairs × 1 stream", [][]int64{{fast}, {fast}, {slow}, {slow}}},
	}

	fmt.Println("Sharing-degree design space (PAL rates, ε=15, ρA=δ=1, Rs=4100, blocks ÷8)")
	fmt.Println("area = gateway pairs + one CORDIC+FIR set per pair;")
	fmt.Println("memory ≈ Σ over streams of (input 2η + output 2η/8) from the buffer bounds;")
	fmt.Println("latency = worst per-sample bound L̂ = ⌈(η−1)/μ⌉+γ̂ over all streams")
	fmt.Printf("\n%-34s %10s %10s %12s %12s\n", "configuration", "slices", "Σηs", "mem(words)", "worst L̂(µs)")

	for _, c := range configs {
		area := accelSet.Scale(len(c.chains)).Add(gw.Scale(len(c.chains)))
		var totalBlocks, totalMem int64
		var worstLat uint64
		feasible := true
		for ci, rates := range c.chains {
			s := sweepChain(fmt.Sprintf("c%d", ci), rates, *clock)
			gr := make([]int64, len(rates))
			for i := range gr {
				gr[i] = 8
			}
			res, err := s.ComputeBlockSizesRounded(gr)
			if err != nil {
				feasible = false
				break
			}
			for i := range s.Streams {
				totalBlocks += res.Blocks[i]
				in, err := s.InputBufferBound(i)
				if err != nil {
					return err
				}
				out, err := s.OutputBufferBound(i, 8)
				if err != nil {
					return err
				}
				totalMem += in + out
				lat, err := s.WorstCaseSampleLatency(i)
				if err != nil {
					return err
				}
				if lat > worstLat {
					worstLat = lat
				}
			}
		}
		if !feasible {
			fmt.Printf("%-34s %10d %10s %12s %12s\n", c.name, area.Slices, "-", "-", "infeasible")
			continue
		}
		fmt.Printf("%-34s %10d %10d %12d %12.0f\n",
			c.name, area.Slices, totalBlocks, totalMem, float64(worstLat)/(float64(*clock)/1e6))
	}
	nonShared := accelSet.Scale(4)
	fmt.Printf("%-34s %10d %10s %12s %12s\n", "4 private sets, no gateways", nonShared.Slices, "-", "(per-sample)", "(minimal)")
	fmt.Println("\nmore sharing → less area but larger blocks, more buffer memory and higher")
	fmt.Println("worst-case latency: the quantitative trade the paper's §VI point buys with")
	fmt.Println("its 63.5% area saving. The per-stage split also shows WHAT is shared matters:")
	fmt.Println("segregating the fast streams from the slow ones changes Σηs at equal area.")
	return nil
}
