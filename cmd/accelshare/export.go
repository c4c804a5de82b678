package main

// Model-export utilities: inspect the Fig. 5 / Fig. 7 dataflow graphs.

import (
	"flag"
	"fmt"
	"math/big"

	"accelshare/internal/core"
)

func init() {
	register("dot", "export the Fig. 5 CSDF or Fig. 7 SDF model of a stream as Graphviz dot", runDot)
}

func runDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	eta := fs.Int64("eta", 8, "block size ηs")
	abstract := fs.Bool("sdf", false, "export the single-actor SDF abstraction instead of the CSDF model")
	accels := fs.Int("accels", 2, "accelerators in the chain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eta < 1 {
		return fmt.Errorf("-eta must be positive, got %d", *eta)
	}
	if *accels < 1 {
		return fmt.Errorf("-accels must be positive, got %d", *accels)
	}
	costs := make([]uint64, *accels)
	for i := range costs {
		costs[i] = 1
	}
	s := &core.System{
		Chain:   core.Chain{Name: "export", AccelCosts: costs, EntryCost: 15, ExitCost: 1, NICapacity: 2},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "s", Rate: big.NewRat(1000, 1), Reconfig: 4100, Block: *eta},
			{Name: "other", Rate: big.NewRat(1000, 1), Reconfig: 4100, Block: *eta},
		},
	}
	p := core.ModelParams{
		ProducerCost: 1, ConsumerCost: 1,
		InputCapacity: 2 * *eta, OutputCapacity: 2 * *eta,
		IncludeInterference: true,
	}
	if *abstract {
		m, err := s.BuildSDF(0, p)
		if err != nil {
			return err
		}
		fmt.Print(m.Graph.DOT())
		return nil
	}
	m, err := s.BuildCSDF(0, p)
	if err != nil {
		return err
	}
	fmt.Print(m.Graph.DOT())
	return nil
}
