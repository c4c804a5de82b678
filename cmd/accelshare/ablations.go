package main

// Additional ablations: arbitration policy (why round-robin) and software
// vs hardware flow control (why credits rather than C-FIFO on the
// accelerator path).

import (
	"flag"
	"fmt"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

func init() {
	register("ablation-arbiter", "round-robin vs fixed-priority arbitration: why RR (§IV-C)", runArbiterAblation)
	register("ablation-flowcontrol", "credit-based hardware flow control vs C-FIFO on the accelerator path (§II)", runFlowControlAblation)
}

func runArbiterAblation(args []string) error {
	fmt.Println("Arbitration ablation — the paper's RR bound (Eq. 3 via [19]) vs fixed priority")
	chain := func(arb gateway.Arbitration) mpsoc.ChainSpec {
		return mpsoc.ChainSpec{
			Name: "arb", EntryCost: 15, ExitCost: 1,
			Mode: gateway.ReconfigFixed, Arbiter: arb,
			Accels: []mpsoc.AccelSpec{{Name: "a", Cost: 1}},
			Streams: []mpsoc.StreamSpec{
				{Name: "greedy", Block: 16, Decimation: 1, Reconfig: 50,
					InCapacity: 64, OutCapacity: 64,
					Engines: []accel.Engine{accel.Passthrough{}}},
				{Name: "meek", Block: 16, Decimation: 1, Reconfig: 50,
					InCapacity: 64, OutCapacity: 64,
					Engines: []accel.Engine{accel.Passthrough{}}},
			},
		}
	}
	build := func(arb gateway.Arbitration) mpsoc.Report {
		sys, err := mpsoc.Build(mpsoc.MultiConfig{HopLatency: 1, Chains: []mpsoc.ChainSpec{chain(arb)}})
		if err != nil {
			panic(err)
		}
		sys.Run(500_000)
		return sys.Report()
	}
	model := &core.System{
		Chain:   chain(gateway.RoundRobin).Timing(),
		ClockHz: 100_000_000,
		Streams: []core.Stream{
			{Name: "greedy", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
			{Name: "meek", Rate: big.NewRat(1, 1), Reconfig: 50, Block: 16},
		},
	}
	gamma, err := model.GammaHat(1)
	if err != nil {
		return err
	}
	rr := build(gateway.RoundRobin)
	pr := build(gateway.FixedPriority)
	fmt.Printf("\nboth streams saturated; 500k cycles; γ̂ per stream = %d cycles\n\n", gamma)
	fmt.Printf("%-16s %14s %14s\n", "", "round-robin", "fixed priority")
	fmt.Printf("%-16s %14d %14d\n", "greedy blocks", rr.PerStream[0].Blocks, pr.PerStream[0].Blocks)
	fmt.Printf("%-16s %14d %14d\n", "meek blocks", rr.PerStream[1].Blocks, pr.PerStream[1].Blocks)
	fmt.Printf("%-16s %14d %14d\n", "meek wait (cyc)", rr.PerStream[1].PendingWait, pr.PerStream[1].PendingWait)
	fmt.Println("\nunder fixed priority the meek stream starves (wait grows without bound):")
	fmt.Println("no finite ε̂s exists, so the Eq. 3 interference bound — and with it the whole")
	fmt.Println("temporal model — requires the round-robin arbiter.")
	return nil
}

func runFlowControlAblation(args []string) error {
	fs := flag.NewFlagSet("ablation-flowcontrol", flag.ContinueOnError)
	words := fs.Int("words", 2048, "words to stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *words < 1 {
		return fmt.Errorf("-words must be positive, got %d", *words)
	}
	fmt.Println("Flow-control ablation — hardware credits vs the C-FIFO algorithm on the")
	fmt.Println("accelerator path (§II: Eclipse used C-FIFO in a hardware shell; the paper")
	fmt.Println("argues credits are cheaper and lighter on the interconnect)")
	fmt.Println()

	// Credit-based link: data words one way, 1-word credits the other.
	creditRun := func() (delivered, dataMsgs, creditMsgs uint64, finish sim.Time) {
		k := sim.NewKernel()
		net, err := ring.NewDual(k, 3, 1)
		if err != nil {
			panic(err)
		}
		dst := sim.NewQueue("dst", 2)
		l := accel.NewLink("l", k, net, 0, 2, dst)
		sent, recv := 0, 0
		var pump *sim.Waker
		pump = sim.NewWaker(k, func() {
			for sent < *words && l.TrySend(sim.Word(sent)) {
				sent++
			}
		})
		l.SubscribeCredits(pump)
		l.SubscribeRingSpace(pump)
		drain := sim.NewWaker(k, func() {
			for {
				if _, ok := dst.TryPop(); !ok {
					break
				}
				recv++
			}
		})
		dst.SubscribeData(drain)
		pump.Wake()
		finish = k.RunAll()
		return uint64(recv), net.Data.DeliveredWords(), net.Credit.DeliveredWords(), finish
	}

	// C-FIFO: data words + write pointer updates one way, read pointer
	// updates back — all as ring messages (ack batch 1, the shell regime).
	cfifoRun := func() (delivered, dataMsgs, creditMsgs uint64, finish sim.Time) {
		k := sim.NewKernel()
		net, err := ring.NewDual(k, 3, 1)
		if err != nil {
			panic(err)
		}
		f, err := cfifo.New(k, net, cfifo.Config{
			Name: "c", Capacity: 2, // same buffering as the NI FIFO
			ProducerNode: 0, ConsumerNode: 2, AckBatch: 1,
		})
		if err != nil {
			panic(err)
		}
		sent, recv := 0, 0
		var pump *sim.Waker
		pump = sim.NewWaker(k, func() {
			for sent < *words && f.TryWrite(sim.Word(sent)) {
				sent++
			}
		})
		f.SubscribeSpace(pump)
		drain := sim.NewWaker(k, func() {
			for {
				if _, ok := f.TryRead(); !ok {
					break
				}
				recv++
			}
		})
		f.SubscribeData(drain)
		pump.Wake()
		k.Schedule(1, pump.Wake) // kick after init
		finish = k.RunAll()
		return uint64(recv), net.Data.DeliveredWords(), net.Credit.DeliveredWords(), finish
	}

	cw, cdm, ccm, cf := creditRun()
	fw, fdm, fcm, ff := cfifoRun()
	fmt.Printf("%-22s %10s %14s %14s %12s\n", "mechanism", "delivered", "data-ring msgs", "credit-ring", "finish(cyc)")
	fmt.Printf("%-22s %10d %14d %14d %12d\n", "hardware credits", cw, cdm, ccm, cf)
	fmt.Printf("%-22s %10d %14d %14d %12d\n", "C-FIFO (software)", fw, fdm, fcm, ff)
	if cw != uint64(*words) || fw != uint64(*words) {
		return fmt.Errorf("words lost: credits %d, cfifo %d of %d", cw, fw, *words)
	}
	fmt.Printf("\ndata-ring load per delivered word: credits %.2f vs C-FIFO %.2f —\n",
		float64(cdm)/float64(cw), float64(fdm)/float64(fw))
	fmt.Println("C-FIFO's counter updates contend with payload on the data ring, while the")
	fmt.Println("credit scheme moves flow control to the dedicated reverse ring; a C-FIFO")
	fmt.Println("shell would also need counter memory and compare logic in EVERY accelerator")
	fmt.Println("NI — the hardware-cost argument the paper makes against the Eclipse shell.")
	return nil
}
