package main

// ring-vs-crossbar: the paper's §II argument made executable — identical
// traffic over the dual ring and over a PROPHID-style TDM crossbar, plus
// the cost scaling of both structures.

import (
	"flag"
	"fmt"

	"accelshare/internal/cost"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
	"accelshare/internal/tdm"
)

func init() {
	register("ring-vs-crossbar", "dual ring vs TDM crossbar: latency under identical traffic + cost scaling (§II)", runRingVsCrossbar)
}

// trafficResult summarises one interconnect run.
type trafficResult struct {
	delivered   int
	totalLat    uint64
	maxLat      uint64
	finish      sim.Time
	wastedSlots uint64
}

func runRingVsCrossbar(args []string) error {
	fs := flag.NewFlagSet("ring-vs-crossbar", flag.ContinueOnError)
	nodes := fs.Int("nodes", 6, "tile count")
	words := fs.Int("words", 256, "words per flow")
	period := fs.Uint64("period", 4, "injection period per flow (cycles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *nodes < 3: // each node sends two nodes on, which below 3 is itself
		return fmt.Errorf("ring-vs-crossbar: -nodes must be at least 3, got %d", *nodes)
	case *words < 1:
		return fmt.Errorf("ring-vs-crossbar: -words must be positive, got %d", *words)
	case *period < 1:
		return fmt.Errorf("ring-vs-crossbar: -period must be positive, got %d", *period)
	}
	// Traffic: every node i streams to node (i+2) mod N.
	type flow struct{ src, dst int }
	var flows []flow
	for i := 0; i < *nodes; i++ {
		flows = append(flows, flow{src: i, dst: (i + 2) % *nodes})
	}

	runRing := func() (*trafficResult, error) {
		k := sim.NewKernel()
		r, err := ring.New(k, ring.Config{Nodes: *nodes, HopLatency: 1, Direction: ring.Clockwise, InjectionDepth: 8})
		if err != nil {
			return nil, err
		}
		res := &trafficResult{}
		sendTimes := map[int][]sim.Time{}
		handles := make([]ring.Handle, len(flows))
		for fi, f := range flows {
			fi, f := fi, f
			handles[fi] = r.Node(f.dst).Bind(func(m ring.Message) {
				lat := uint64(k.Now() - sendTimes[fi][0])
				sendTimes[fi] = sendTimes[fi][1:]
				res.delivered++
				res.totalLat += lat
				if lat > res.maxLat {
					res.maxLat = lat
				}
			})
		}
		for fi, f := range flows {
			fi, f := fi, f
			n := 0
			var tick func()
			tick = func() {
				if n >= *words {
					return
				}
				if r.Node(f.src).TrySend(handles[fi], sim.Word(n)) {
					sendTimes[fi] = append(sendTimes[fi], k.Now())
					n++
				}
				k.Schedule(sim.Time(*period), tick)
			}
			k.Schedule(0, tick)
		}
		res.finish = k.RunAll()
		return res, nil
	}

	runXbar := func() (*trafficResult, error) {
		k := sim.NewKernel()
		// Wheel sized to give every flow one slot per N cycles.
		x, err := tdm.New(k, tdm.Config{Nodes: *nodes, WheelSlots: len(flows), TraversalLatency: 2, InjectionDepth: 8})
		if err != nil {
			return nil, err
		}
		for i, f := range flows {
			if err := x.Reserve(i, f.src, f.dst); err != nil {
				return nil, err
			}
		}
		res := &trafficResult{}
		sendTimes := map[int][]sim.Time{}
		for fi, f := range flows {
			fi, f := fi, f
			x.Node(f.dst).Bind(10+fi, func(m tdm.Message) {
				lat := uint64(k.Now() - sendTimes[fi][0])
				sendTimes[fi] = sendTimes[fi][1:]
				res.delivered++
				res.totalLat += lat
				if lat > res.maxLat {
					res.maxLat = lat
				}
			})
		}
		for fi, f := range flows {
			fi, f := fi, f
			n := 0
			var tick func()
			tick = func() {
				if n >= *words {
					return
				}
				if x.Node(f.src).TrySend(f.dst, 10+fi, sim.Word(n)) {
					sendTimes[fi] = append(sendTimes[fi], k.Now())
					n++
				}
				k.Schedule(sim.Time(*period), tick)
			}
			k.Schedule(0, tick)
		}
		res.finish = k.RunAll()
		res.wastedSlots = x.WastedSlots
		return res, nil
	}

	rr, err := runRing()
	if err != nil {
		return err
	}
	xr, err := runXbar()
	if err != nil {
		return err
	}
	total := *words * len(flows)
	fmt.Printf("§II — dual ring vs TDM crossbar, %d tiles, %d flows × %d words, 1 word/%d cycles each\n\n",
		*nodes, len(flows), *words, *period)
	fmt.Printf("%-14s %10s %10s %10s %12s\n", "interconnect", "delivered", "avg lat", "max lat", "finish (cyc)")
	fmt.Printf("%-14s %10d %10.1f %10d %12d\n", "dual ring", rr.delivered,
		float64(rr.totalLat)/float64(max(1, rr.delivered)), rr.maxLat, rr.finish)
	fmt.Printf("%-14s %10d %10.1f %10d %12d\n", "TDM crossbar", xr.delivered,
		float64(xr.totalLat)/float64(max(1, xr.delivered)), xr.maxLat, xr.finish)
	if rr.delivered != total || xr.delivered != total {
		return fmt.Errorf("lost words: ring %d, crossbar %d of %d", rr.delivered, xr.delivered, total)
	}
	fmt.Printf("\ncrossbar slots that passed unused while traffic waited: %d\n", xr.wastedSlots)

	fmt.Println("\ncost scaling (ring coefficients from Fig. 11; crossbar coefficients are")
	fmt.Println("documented estimates — see internal/cost/interconnect.go):")
	p := cost.DefaultInterconnectParams()
	fmt.Print(p.FormatInterconnectSweep(12))
	fmt.Printf("\nring is cheaper from %d tiles up — the §II cost argument for the ring.\n",
		p.InterconnectBreakEven(64))
	return nil
}
