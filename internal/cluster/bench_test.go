package cluster

// Fleet-scale benchmarks for the BENCH_*.json trajectory (ROADMAP
// "simulator hot-path speed"). Placement covers Submit → per-chain
// Algorithm 1 re-solve → staged transition on a live platform; evacuation
// covers the full rung-2 path: doctor verdict, freeze, export, per-target
// re-admission with checkpoint-carrying import, resume. Each iteration
// simulates the whole scenario, so ns/op is dominated by the DES hot path
// these benches exist to make measurable.

import (
	"fmt"
	"math/big"
	"testing"

	"accelshare/internal/fault"
	"accelshare/internal/sim"
)

// benchFleet is the placement benchmark fixture: four cost-1 chains, each
// with capacity for four 1/75 streams.
func benchFleet() []ChainSpec {
	return []ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 6},
		{Name: "c1", AccelCost: 1, ReserveSlots: 6},
		{Name: "c2", AccelCost: 1, ReserveSlots: 6},
		{Name: "c3", AccelCost: 1, ReserveSlots: 6},
	}
}

// BenchmarkClusterPlacement places eight arriving streams across the fleet
// (two rounds of utilization-ranked placement on every chain) and runs the
// platform long enough for each admission transition to settle.
func BenchmarkClusterPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := New(testConfig(benchFleet()))
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 8; s++ {
			submitAt(c, sim.Time(1000+500*s), StreamRequest{
				Name: fmt.Sprintf("s%d", s), Period: 150, Priority: s % 3,
			})
		}
		c.Run(20_000)
		placed := 0
		for _, ss := range c.StreamStatuses() {
			if ss.State == "live" {
				placed++
			}
		}
		if placed != 8+len(benchFleet()) {
			b.Fatalf("placed %d streams, want %d", placed, 8+len(benchFleet()))
		}
	}
}

// BenchmarkClusterEvacuation wedges a loaded chain with no standby: the
// controller must freeze it, export every stream, and re-admit each onto a
// survivor with its checkpoint (rung 2 of the degradation ladder).
func BenchmarkClusterEvacuation(b *testing.B) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 10_000}}}
	chains := []ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 6, Faults: wedge},
		{Name: "c1", AccelCost: 1, ReserveSlots: 6},
		{Name: "c2", AccelCost: 1, ReserveSlots: 6},
	}
	for i := 0; i < b.N; i++ {
		c, err := New(testConfig(chains))
		if err != nil {
			b.Fatal(err)
		}
		submitAt(c, 1_000, StreamRequest{Name: "v0", Period: 300, Priority: 1})
		c.Run(40_000)
		if got := len(ladderOf(c, "evacuate")); got == 0 {
			b.Fatal("no evacuation steps recorded")
		}
		for _, s := range c.LadderSteps() {
			if s.Measured > s.Bound {
				b.Fatalf("ladder step %s/%s over bound: %d > %d", s.Rung, s.Stream, s.Measured, s.Bound)
			}
		}
	}
}

// BenchmarkRebalance measures one full hot-migration cycle: the periodic
// tick snapshots fleet telemetry, the spread trips the high-water mark, and
// the 4-step move (remove, release, settle, admit) relocates the victim —
// each iteration simulates the whole scenario including the departure that
// unbalances the fleet.
func BenchmarkRebalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig([]ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4},
		})
		cfg.Rebalance = RebalanceConfig{
			Every: 5_000, Start: 30_000, Stop: 45_000,
			HighWater: big.NewRat(1, 8),
		}
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
		submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
		submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
		departAt(c, 25_000, "s1")
		c.Run(50_000)
		steps := ladderOf(c, "rebalance")
		if len(steps) != 1 {
			b.Fatalf("%d rebalance steps, want 1", len(steps))
		}
		if steps[0].Measured > steps[0].Bound {
			b.Fatalf("move over bound: %d > %d", steps[0].Measured, steps[0].Bound)
		}
	}
}

// BenchmarkServeTraffic is the sustained-serving hot path in miniature: an
// open-loop arrival/departure process with a diurnal ramp over a
// slot-reclaiming fleet, the rebalancer ticking throughout. It is the
// cluster-layer cost model for the accelshare serve campaign.
func BenchmarkServeTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(benchFleet())
		cfg.ReclaimSlots = true
		cfg.Rebalance = RebalanceConfig{
			Every: 5_000, Start: 10_000, Stop: 45_000,
			HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
		}
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ops := Profile{
			Seed: 24601, Start: 1_000, End: 30_000,
			MeanSpacing: 2_000, MinLifetime: 8_000, MeanLifetime: 15_000,
			Periods: []int64{300, 600}, Priorities: []int{1, 5},
			DiurnalPeriod: 30_000, DiurnalAmplitude: 50,
		}.Ops()
		Schedule(c, ops)
		c.Run(50_000)
		if got := len(eventsOf(c, EvArrive)); got < 10 {
			b.Fatalf("%d admissions, want >= 10", got)
		}
	}
}
