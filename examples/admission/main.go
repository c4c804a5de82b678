// Online admission: change the stream set of a RUNNING platform.
//
// The paper sizes block sizes ηs offline (Algorithm 1) for a fixed stream
// set. This example drives the online control plane instead: a four-stream
// platform is live, and the admission controller
//
//  1. admits a fifth stream mid-run — incremental re-solve, then a staged
//     mode transition (drain to a block boundary, reprogram the stream
//     slots over the configuration bus, resume) whose measured cost stays
//     under its precomputed bound;
//  2. removes a stream — the survivors' blocks shrink, cutting latency;
//  3. readmits it through a canary block (probational first block: one
//     clean completion restores full membership);
//  4. rejects an infeasible request with a machine-readable reason.
package main

import (
	"fmt"
	"log"
	"math/big"

	"accelshare/internal/accel"
	"accelshare/internal/admission"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
)

func main() {
	// The running configuration: one accelerator (ρA = 1), entry DMA ε = 15,
	// exit δ = 1, Rs = 50, four streams at one sample per 75 cycles each.
	// Algorithm 1 gives η = 22 per stream (τ̂ = 410, γ̂ = 1640).
	// ReserveSlots pre-allocates gateway stream slots (and their ring
	// attachment points) at build time, so a stream admitted later needs no
	// rewiring.
	chain := mpsoc.ChainSpec{
		Name:              "chain",
		EntryCost:         15,
		ExitCost:          1,
		Mode:              gateway.ReconfigFixed,
		Accels:            []mpsoc.AccelSpec{{Name: "acc", Cost: 1}},
		DrainTimeout:      200,
		Recovery:          gateway.Recovery{Enabled: true, RetryLimit: 2},
		RecordTurnarounds: true,
		ReserveSlots:      2,
	}
	model := &core.System{Chain: chain.Timing(), ClockHz: 1}
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		model.Streams = append(model.Streams, core.Stream{
			Name: name, Rate: big.NewRat(1, 75), Reconfig: 50,
		})
	}
	if _, err := model.ComputeBlockSizes(); err != nil {
		log.Fatal(err)
	}
	engines := func(string) []accel.Engine { return []accel.Engine{&accel.Gain{}} }
	for i := range model.Streams {
		chain.Streams = append(chain.Streams, mpsoc.StreamSpec{
			Name:         model.Streams[i].Name,
			Block:        model.Streams[i].Block,
			Decimation:   1,
			Reconfig:     50,
			InCapacity:   128,
			OutCapacity:  128,
			SourcePeriod: 75,
			Engines:      engines(""),
		})
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{Chains: []mpsoc.ChainSpec{chain}})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := admission.New(ms, admission.Config{
		Chain:       0,
		Model:       model,
		PerSlotCost: 10,
		Engines:     engines,
	})
	if err != nil {
		log.Fatal(err)
	}
	ms.Chains[0].Pair.Start()
	k := ms.K

	report := func(what string) func(admission.Verdict) {
		return func(v admission.Verdict) {
			if !v.Accepted {
				fmt.Printf("t=%-6d %s: rejected (%s) %s\n", k.Now(), what, v.Reason, v.Detail)
				return
			}
			fmt.Printf("t=%-6d %s: admitted, blocks:", k.Now(), what)
			for _, a := range v.Blocks {
				fmt.Printf(" %s=%d", a.Name, a.Block)
			}
			fmt.Printf("\n         transition: pause %d + bus %d cycles (bound %d)\n",
				v.PauseWait, v.BusCycles, v.BoundCycles)
		}
	}

	// Let the platform reach steady state, then admit a fifth stream with a
	// lower rate (one sample per 300 cycles). The survivors' blocks grow
	// from 22 to 36; the new stream gets η = 9.
	k.Run(3000)
	ctrl.AddStream(admission.AddRequest{
		Spec: mpsoc.StreamSpec{
			Name: "s5", Decimation: 1, Reconfig: 50,
			InCapacity: 64, OutCapacity: 64, SourcePeriod: 300,
			Engines: engines("s5"),
		},
		Rate: big.NewRat(1, 300),
	}, report("add s5"))
	k.Run(20_000)

	// Remove s4: the re-solve shrinks everyone's blocks — less buffering,
	// lower worst-case latency — and the freed slot is parked.
	ctrl.RemoveStream("s4", report("remove s4"))
	k.Run(30_000)

	// Readmit s4. Its first block is a canary: served under probation, one
	// clean completion makes the stream a full member again (a stall would
	// re-quarantine it immediately and roll the survivors back).
	ctrl.Readmit("s4", report("readmit s4"))
	k.Run(40_000)

	// A fifth 1/75-rate stream would push utilisation past 1: Algorithm 1
	// has no solution, and the controller says exactly why.
	ctrl.AddStream(admission.AddRequest{
		Spec: mpsoc.StreamSpec{
			Name: "s6", Decimation: 1, Reconfig: 50,
			InCapacity: 64, OutCapacity: 64, SourcePeriod: 75,
			Engines: engines("s6"),
		},
		Rate: big.NewRat(1, 75),
	}, report("add s6"))
	k.Run(60_000)

	fmt.Println("\nevent log (deterministic; replayable via `accelshare admit`):")
	fmt.Print(admission.FormatEvents(ctrl.Events()))

	fmt.Println("\nfinal platform state:")
	ch := ms.Chains[0]
	for i, snap := range ch.Pair.Snapshot() {
		fmt.Printf("  %-4s η=%-3d %4d blocks, %6d in / %6d out, %d overflows\n",
			snap.Name, snap.Block, snap.Blocks, snap.SamplesIn, snap.SamplesOut,
			ch.Strs[i].Overflows)
	}
}
