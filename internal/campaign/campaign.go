// Package campaign holds the fleet campaigns once: Serve and Chaos build
// each campaign's profile, full or short, from one shared fleet base; Run
// builds the fleet, schedules the traffic, runs it and does the
// conformance pass; Check states the acceptance every fleet campaign must
// meet. A profile is a pure function of its seed.
package campaign

import (
	"fmt"
	"math/big"

	"accelshare/internal/cluster"
	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// Fleet is one fleet campaign.
type Fleet struct {
	Config  cluster.Config
	Traffic cluster.Profile
	Horizon sim.Time
	// Conformance is the fleet conformance pass; its After cuts past the
	// last disturbance.
	Conformance conformance.Options
	// MinAdmitted fails the campaign when fewer lifetimes were admitted:
	// offered load does not count, a rejected arrival never lived on the
	// fleet.
	MinAdmitted int
}

// base is the fleet both campaigns run (ε=15, δ=1, Rs=50, value-exact
// recovery checkpointed at K=4, outputs collected for the contiguity
// check); a profile adds C-FIFO sizes, resident period, retry limit and
// chains.
func base() cluster.Config {
	return cluster.Config{
		EntryCost:    15,
		ExitCost:     1,
		HopLatency:   1,
		Reconfig:     50,
		DrainTimeout: 600,
		Recovery: gateway.Recovery{
			Enabled: true, RetryLimit: 2,
			Checkpoint: 4, CheckpointCost: 5, ValueExact: true,
		},
		PerSlotCost:      10,
		Doctor:           fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1},
		Retry:            fault.Backoff{Base: 200, Factor: 2, Cap: 3_200},
		ResidentPriority: 100,
		CollectOutputs:   true,
	}
}

// cut is the fleet conformance pass over the blocks queued after t=after;
// it also bounds each retried block's replay work by the base's K.
func cut(after sim.Time) conformance.Options {
	return conformance.Options{After: after, MinBlocks: 3, FilterQueued: true, ReplayBound: base().Recovery.Checkpoint}
}

// Serve is the sustained-serving campaign, the rebalancer's acceptance
// artifact: heterogeneous chains serve seeded open-loop traffic with a
// diurnal ramp and one persistent flash crowd while the periodic
// rebalancer migrates streams hot whenever the fleet's exact utilisation
// spread exceeds its high-water mark. Departed streams' slots are reclaimed.
//
// The full campaign runs eight chains (six fast, two slow), over a
// thousand admitted background lifetimes across ~2M cycles, four diurnal
// cycles, and a flash crowd at 900k that stays for the rest of the run.
// The arrival spacing is sized against the fleet's admission throughput —
// every admission and departure is a serialised drain-and-reconfigure
// transition on its chain, so pushing the spacing far below that just
// converts offered load into rejections. Background traffic ends at 1.7M
// and the rebalancer stops at 1.75M, so the 1.78M conformance cut sees
// only the settled fleet (residents + the crowd). The short profile is the
// CI one: six chains, a few dozen lifetimes, one diurnal cycle and a small
// persistent crowd — small enough to race.
func Serve(short bool, seed uint64) Fleet {
	cfg := base()
	cfg.InCapacity, cfg.OutCapacity = 512, 256
	cfg.ResidentPeriod = 150
	cfg.Retry.Limit = 8
	cfg.ReclaimSlots = true
	var f Fleet
	if short {
		cfg.Chains = []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 6},
			{Name: "c1", AccelCost: 1, ReserveSlots: 6},
			{Name: "c2", AccelCost: 1, ReserveSlots: 6},
			{Name: "c3", AccelCost: 1, ReserveSlots: 6},
			{Name: "c4", AccelCost: 25, ReserveSlots: 6},
			{Name: "c5", AccelCost: 25, ReserveSlots: 6},
		}
		cfg.Rebalance = cluster.RebalanceConfig{
			Every: 5_000, Start: 20_000, Stop: 85_000,
			HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
		}
		f = Fleet{
			Traffic: cluster.Profile{
				Seed: seed, Start: 1_000, End: 60_000,
				MeanSpacing: 2_000, MinLifetime: 10_000, MeanLifetime: 20_000,
				Periods:       []int64{300, 600},
				Priorities:    []int{1, 5},
				DiurnalPeriod: 60_000, DiurnalAmplitude: 50,
				FlashAt: 40_000, FlashCount: 4, FlashSpacing: 200,
				FlashPeriod: 300, FlashLifetime: 0,
			},
			Horizon:     120_000,
			Conformance: cut(90_000),
			MinAdmitted: 20,
		}
	} else {
		cfg.Chains = []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 8},
			{Name: "c1", AccelCost: 1, ReserveSlots: 8},
			{Name: "c2", AccelCost: 1, ReserveSlots: 8},
			{Name: "c3", AccelCost: 1, ReserveSlots: 8},
			{Name: "c4", AccelCost: 1, ReserveSlots: 8},
			{Name: "c5", AccelCost: 1, ReserveSlots: 8},
			{Name: "c6", AccelCost: 25, ReserveSlots: 8},
			{Name: "c7", AccelCost: 25, ReserveSlots: 8},
		}
		cfg.Rebalance = cluster.RebalanceConfig{
			Every: 25_000, Start: 50_000, Stop: 1_750_000,
			HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
		}
		f = Fleet{
			Traffic: cluster.Profile{
				Seed: seed, Start: 1_000, End: 1_700_000,
				MeanSpacing: 1_500, MinLifetime: 20_000, MeanLifetime: 40_000,
				Periods:    []int64{300, 600},
				Priorities: []int{1, 3, 5},
				// Four diurnal cycles: spacing compresses by up to 50% mid-cycle.
				DiurnalPeriod: 400_000, DiurnalAmplitude: 50,
				// The crowd lands mid-run and never leaves (FlashLifetime 0):
				// the fleet must absorb the permanent load shift and the
				// rebalancer must keep the spread bounded around it.
				FlashAt: 900_000, FlashCount: 8, FlashSpacing: 200,
				FlashPeriod: 300, FlashLifetime: 0,
			},
			Horizon:     1_900_000,
			Conformance: cut(1_780_000),
			MinAdmitted: 1_000,
		}
	}
	f.Config = cfg
	return f
}

// Chaos is the fleet-level robustness soak. A heterogeneous fleet (fast
// and slow chains, one warm spare, one spare that comes online late)
// serves open-loop traffic — background arrivals and departures plus one
// flash crowd — while a rolling sequence of chain kills (permanent link
// wedges in the chains' fault plans) walks the control plane down its
// degradation ladder:
//
//	kill #1 hits while a spare is available      → failover  (rung 1)
//	kill #2 hits with no spare left              → evacuate  (rung 2)
//	kill #3 squeezes capacity below demand       → shed      (rung 3)
//	a late spare heals into the fleet            → readmit
//
// Every ladder step is recorded with its measured cost against a composed
// bound (DESIGN § Fleet robustness). The full soak kills three of four
// serving chains; the short CI profile kills both of its two.
func Chaos(short bool, seed uint64) Fleet {
	wedge := func(at sim.Time) *fault.Plan {
		return &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: at}}}
	}
	cfg := base()
	cfg.InCapacity, cfg.OutCapacity = 256, 128
	cfg.ResidentPeriod = 75
	// Limit 5 exhausts a shed stream's readmission retries (~6.2k cycles)
	// before surviving chains free capacity, so it parks and is readmitted
	// by the late spare's heal — exercising the full ladder.
	cfg.Retry.Limit = 5
	var f Fleet
	if short {
		cfg.Chains = []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge(15_000)},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4, Faults: wedge(35_000)},
			{Name: "sp0", AccelCost: 1, ReserveSlots: 4, Spare: true},
			{Name: "sp1", AccelCost: 1, ReserveSlots: 4, Spare: true, OnlineAt: 55_000},
		}
		f = Fleet{
			Traffic: cluster.Profile{
				Seed: seed, Start: 1_000, End: 30_000,
				// Lifetime <= 40k keeps every transient departure before the 70k cut.
				MeanSpacing: 5_000, MinLifetime: 20_000, MeanLifetime: 30_000,
				Periods: []int64{75, 150}, Priorities: []int{1, 5},
				FlashAt: 25_000, FlashCount: 3, FlashSpacing: 150,
				FlashPeriod: 150, FlashLifetime: 20_000,
			},
			Horizon:     90_000,
			Conformance: cut(70_000),
		}
	} else {
		cfg.Chains = []cluster.ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 6, Faults: wedge(40_000)},
			{Name: "c1", AccelCost: 1, ReserveSlots: 6, Faults: wedge(120_000)},
			{Name: "c2", AccelCost: 25, ReserveSlots: 6, Faults: wedge(90_000)},
			{Name: "c3", AccelCost: 25, ReserveSlots: 6},
			{Name: "sp0", AccelCost: 1, ReserveSlots: 6, Spare: true},
			{Name: "sp1", AccelCost: 1, ReserveSlots: 6, Spare: true, OnlineAt: 150_000},
		}
		f = Fleet{
			Traffic: cluster.Profile{
				Seed: seed, Start: 1_000, End: 110_000,
				// Lifetime <= 60k: the last transient departs by ~170k, so the
				// conformance cut at 175k sees only the settled resident fleet.
				MeanSpacing: 7_000, MinLifetime: 30_000, MeanLifetime: 45_000,
				Periods: []int64{75, 150, 300}, Priorities: []int{1, 3, 5},
				// The flash crowd lands just before kill #3 saturates the two
				// survivors, so c1's evacuation must shed — the parked stream is
				// only readmitted when sp1 heals at 150k.
				FlashAt: 112_000, FlashCount: 4, FlashSpacing: 150,
				FlashPeriod: 150, FlashLifetime: 30_000,
			},
			Horizon:     215_000,
			Conformance: cut(175_000),
		}
	}
	f.Config = cfg
	return f
}

// Outcome is a finished fleet run.
type Outcome struct {
	Fleet      Fleet
	Controller *cluster.Controller
	// Ops is the traffic scheduled against the fleet, in time order.
	Ops []cluster.Op
	// Conformance holds one result per serving chain.
	Conformance []cluster.ChainConformance
	// Admitted counts the fleet's arrive events: lifetimes admitted.
	Admitted int
}

// Run builds f's fleet, schedules its traffic, runs it to the horizon and
// does the conformance pass; the caller renders the outcome, then Checks it.
func Run(f Fleet) (*Outcome, error) {
	c, err := cluster.New(f.Config)
	if err != nil {
		return nil, err
	}
	o := &Outcome{Fleet: f, Controller: c, Ops: f.Traffic.Ops()}
	cluster.Schedule(c, o.Ops)
	c.Run(f.Horizon)
	if o.Conformance, err = c.Conformance(f.Conformance); err != nil {
		return nil, err
	}
	for _, e := range c.Events() {
		if e.Kind == cluster.EvArrive {
			o.Admitted++
		}
	}
	return o, nil
}

// Check refuses a fleet run with a ladder step measured above its composed
// bound, a live stream that lost or duplicated a sample, a conformance
// violation, or fewer than floor admitted lifetimes. It takes plain values,
// so a caller that drove the run itself can check it too.
func Check(steps []cluster.LadderStep, streams []cluster.StreamStatus, conf []cluster.ChainConformance, admitted, floor int) error {
	for _, s := range steps {
		if s.Measured > s.Bound {
			return fmt.Errorf("%s step of %s at %d measured %d > bound %d",
				s.Rung, s.Stream, s.At, s.Measured, s.Bound)
		}
	}
	for _, ss := range streams {
		if ss.State == "live" && !ss.ContiguousOutputs {
			return fmt.Errorf("live stream %s lost or duplicated samples", ss.Name)
		}
	}
	for _, cc := range conf {
		if n := len(cc.Result.Violations); n > 0 {
			return fmt.Errorf("chain %s: %d conformance violations, first: %s",
				cc.Chain, n, cc.Result.Violations[0])
		}
	}
	if admitted < floor {
		return fmt.Errorf("%d lifetimes admitted, want >= %d", admitted, floor)
	}
	return nil
}
