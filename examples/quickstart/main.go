// Quickstart: share one accelerator between two real-time streams.
//
// This example walks the paper's designer flow end to end on a minimal
// configuration:
//
//  1. describe the shared chain and the streams' throughput requirements,
//  2. compute minimum block sizes (Algorithm 1),
//  3. verify the throughput guarantee (Eq. 5),
//  4. inspect the per-block schedule and worst-case bounds (Eqs. 2–4),
//  5. check the hardware against the model on the cycle-level simulator;
//     the program exits non-zero when a stream's worst turnaround exceeds
//     γ̂ or its source drops a sample.
package main

import (
	"fmt"
	"log"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
)

func main() {
	// Step 1: one accelerator (ρA = 4 cycles/sample) shared by two streams
	// through a gateway pair with a 2-cycle DMA and 1-cycle exit gateway on
	// a 100 MHz platform.
	sys := &core.System{
		Chain: core.Chain{
			Name:       "sharpen",
			AccelCosts: []uint64{4},
			EntryCost:  2,
			ExitCost:   1,
			NICapacity: 2,
		},
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "camera", Rate: big.NewRat(2_000_000, 1), Reconfig: 800},
			{Name: "radar", Rate: big.NewRat(500_000, 1), Reconfig: 800},
		},
	}

	// Step 2: minimum block sizes.
	res, err := sys.ComputeBlockSizes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minimum block sizes (Algorithm 1):")
	for i, st := range sys.Streams {
		fmt.Printf("  %-8s η = %d samples\n", st.Name, res.Blocks[i])
	}

	// Step 3: throughput guarantees.
	if err := sys.VerifyThroughput(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthroughput guarantees (Eq. 5):")
	for i, st := range sys.Streams {
		rate, err := sys.GuaranteedRate(i)
		if err != nil {
			log.Fatal(err)
		}
		f, _ := rate.Float64()
		w, _ := st.Rate.Float64()
		fmt.Printf("  %-8s guaranteed %.0f S/s (required %.0f)\n", st.Name, f, w)
	}

	// Step 4: worst-case bounds per stream.
	fmt.Println("\nworst-case bounds:")
	for i, st := range sys.Streams {
		tau, err := sys.TauHat(i)
		if err != nil {
			log.Fatal(err)
		}
		eps, err := sys.EpsilonHat(i)
		if err != nil {
			log.Fatal(err)
		}
		gamma, err := sys.GammaHat(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s τ̂ = %d cycles, ε̂ = %d, γ̂ = %d (%.1f µs at 100 MHz)\n",
			st.Name, tau, eps, gamma, float64(gamma)/100)
	}

	// Step 5: run the same configuration as simulated hardware and compare
	// the measured worst-case turnaround against γ̂.
	cfg := mpsoc.Config{
		Name:       "quickstart",
		HopLatency: 1,
		EntryCost:  2,
		ExitCost:   1,
		Mode:       gateway.ReconfigFixed,
		Accels:     []mpsoc.AccelSpec{{Name: "sharpen", Cost: 4, NICapacity: 2}},
	}
	for i, st := range sys.Streams {
		// Drive each source at exactly its required rate: the period in
		// cycles is ClockHz / rate, kept exact as a rational.
		num := uint64(sys.ClockHz)
		den := uint64(st.Rate.Num().Int64())
		cfg.Streams = append(cfg.Streams, mpsoc.StreamSpec{
			Name:            st.Name,
			Block:           res.Blocks[i],
			Decimation:      1,
			Reconfig:        800,
			InCapacity:      int(3 * res.Blocks[i]),
			OutCapacity:     int(3 * res.Blocks[i]),
			Engines:         []accel.Engine{&accel.Gain{}},
			SourcePeriodNum: num,
			SourcePeriodDen: den,
			TotalInputs:     uint64(res.Blocks[i]) * 40,
		})
	}
	hw, err := mpsoc.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hw.Run(80_000_000)
	rep := hw.Report()
	fmt.Println("\nsimulated hardware vs model:")
	ok := true
	for i, sr := range rep.PerStream {
		gamma, err := sys.GammaHat(i)
		if err != nil {
			log.Fatal(err)
		}
		status := "within bound"
		if sr.MaxTurnaround > gamma {
			status = "BOUND VIOLATED"
		}
		ok = ok && sr.MaxTurnaround <= gamma && sr.Overflows == 0
		fmt.Printf("  %-8s %d blocks, worst turnaround %d cycles vs γ̂ = %d  (%s, %d drops)\n",
			sr.Name, sr.Blocks, sr.MaxTurnaround, gamma, status, sr.Overflows)
	}
	if !ok {
		log.Fatal("the simulated hardware broke the model's guarantee")
	}
}
