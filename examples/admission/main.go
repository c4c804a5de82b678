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
//
// Every stream is described once, by its mpsoc.StreamSpec: its source
// period is its rate μs, and the controller reads μs, Rs and ηs from the
// platform.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"accelshare/internal/accel"
	"accelshare/internal/admission"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// gainStream is a stream through the gain accelerator with Rs = 50 whose
// source makes one sample every period cycles.
func gainStream(name string, period sim.Time, fifo int) mpsoc.StreamSpec {
	return mpsoc.StreamSpec{
		Name: name, Decimation: 1, Reconfig: 50,
		InCapacity: fifo, OutCapacity: fifo, SourcePeriod: period,
		Engines: []accel.Engine{&accel.Gain{}},
	}
}

// run drives the campaign and writes its report to w.
func run(w io.Writer) error {
	// The running configuration: one accelerator (ρA = 1), entry DMA ε = 15,
	// exit δ = 1, Rs = 50, four streams at one sample per 75 cycles each.
	// Algorithm 1 gives η = 22 per stream (τ̂ = 410, γ̂ = 1640).
	// ReserveSlots pre-allocates gateway stream slots (and their ring
	// attachment points) at build time, so a stream admitted later needs no
	// rewiring. Reprogramming a stream slot costs mpsoc.SlotCost = 10 bus
	// cycles.
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
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		chain.Streams = append(chain.Streams, gainStream(name, 75, 128))
	}
	if err := chain.SizeBlocks(); err != nil {
		return err
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{Chains: []mpsoc.ChainSpec{chain}})
	if err != nil {
		return err
	}
	var log []admission.Event
	ctrl, err := admission.New(ms, admission.Config{
		Chain:   0,
		Engines: func(string) []accel.Engine { return []accel.Engine{&accel.Gain{}} },
		Log:     &log,
	})
	if err != nil {
		return err
	}
	ms.Chains[0].Pair.Start()
	k := ms.K

	report := func(what string) func(admission.Verdict) {
		return func(v admission.Verdict) {
			if !v.Accepted {
				fmt.Fprintf(w, "t=%-6d %s: rejected (%s) %s\n", k.Now(), what, v.Reason, v.Detail)
				return
			}
			fmt.Fprintf(w, "t=%-6d %s: admitted, blocks:", k.Now(), what)
			for _, a := range v.Blocks {
				fmt.Fprintf(w, " %s=%d", a.Name, a.Block)
			}
			fmt.Fprintf(w, "\n         transition: pause %d + bus %d cycles (bound %d)\n",
				v.PauseWait, v.BusCycles, v.BoundCycles)
		}
	}

	// Let the platform reach steady state, then admit a fifth stream with a
	// lower rate (one sample per 300 cycles). The survivors' blocks grow
	// from 22 to 36; the new stream gets η = 9.
	k.Run(3000)
	ctrl.AddStream(admission.AddRequest{Spec: gainStream("s5", 300, 64)}, report("add s5"))
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

	// A fifth stream at one sample per 75 cycles would push utilisation
	// past 1: Algorithm 1 has no solution, and the controller says exactly
	// why.
	ctrl.AddStream(admission.AddRequest{Spec: gainStream("s6", 75, 64)}, report("add s6"))
	k.Run(60_000)

	fmt.Fprintln(w, "\nevent log (deterministic; replayable via `accelshare admit`):")
	io.WriteString(w, admission.FormatEvents(log))

	fmt.Fprintln(w, "\nfinal platform state:")
	ch := ms.Chains[0]
	for i, snap := range ch.Pair.Snapshot() {
		fmt.Fprintf(w, "  %-4s η=%-3d %4d blocks, %6d in / %6d out, %d overflows\n",
			snap.Name, snap.Block, snap.Blocks, snap.SamplesIn, snap.SamplesOut,
			ch.Strs[i].Overflows)
	}
	return nil
}
