package main

// memopt: the §V-F branch-and-bound — memory-optimal block sizes versus
// the Algorithm-1 minimum.

import (
	"flag"
	"fmt"
	"math/big"

	"accelshare/internal/core"
)

func init() {
	register("memopt", "memory-optimal block sizes via branch and bound (§V-F): min blocks ≠ min memory", runMemOpt)
}

func runMemOpt(args []string) error {
	fs := flag.NewFlagSet("memopt", flag.ContinueOnError)
	window := fs.Int("window", 6, "blocks above the minimum to explore per stream")
	burst := fs.Int64("burst", 5, "producer burst size in samples (packetised software producers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *window < 0 {
		return fmt.Errorf("-window must not be negative, got %d", *window)
	}
	if *burst < 1 {
		return fmt.Errorf("-burst must be positive, got %d", *burst)
	}
	s := &core.System{
		Chain:   core.Chain{Name: "memopt", AccelCosts: []uint64{2}, EntryCost: 3, ExitCost: 1},
		ClockHz: 1_000_000,
		Streams: []core.Stream{
			{Name: "s0", Rate: big.NewRat(34_000, 1), Reconfig: 40, ProducerBurst: *burst},
			{Name: "s1", Rate: big.NewRat(34_000, 1), Reconfig: 40, ProducerBurst: *burst},
		},
	}
	fmt.Println("§V-F — memory-optimal block sizes (branch and bound over the SDF abstraction)")
	fmt.Printf("two streams, producers write %d-sample packets; per-stream buffers sized by\n", *burst)
	fmt.Println("exact state-space search under the stream's rate constraint")
	res, err := s.OptimalBlockSizesForMemory(*window, 1)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-26s %14s %14s\n", "", "blocks", "total memory")
	fmt.Printf("%-26s %14v %14d\n", "Algorithm-1 minimum", res.MinBlocks, res.MinBlocksMemory)
	fmt.Printf("%-26s %14v %14d\n", "memory optimum", res.Blocks, res.TotalMemory)
	fmt.Printf("\nexplored %d assignments; per-stream capacities at the optimum: %v\n", res.Explored, res.Capacities)
	if res.TotalMemory < res.MinBlocksMemory {
		fmt.Println("\nLARGER blocks need LESS memory here — the Fig. 8 non-monotonicity at system")
		fmt.Println("level, and why §V-F pairs Algorithm 1 with an optional branch-and-bound pass.")
	} else {
		fmt.Println("\nfor these parameters the minimum blocks happen to also minimise memory.")
	}
	return nil
}
