package cluster

// Fleet rebalancing (DESIGN §13): a deterministic periodic loop keeps the
// serving chains' utilisation spread bounded by migrating streams hot, the
// export/import machinery used as a load-balancing primitive. The
// rebalancer decides who runs where; each chain's admission controller
// proves feasibility (UltraShare's scheduler/allocator split).
//
// Every tick snapshots the fleet telemetry (FleetStats) and compares the
// utilisation spread with a high-water mark. Above it, solve.PlanRebalance
// ranks the chains on their cached loads, picks victims
// smallest-residue-first and plans moves down toward a low-water mark of
// half the high-water mark. That hysteresis gap and a per-stream move
// budget keep two near-balanced chains from trading a stream forever.
//
// One move is a composed, individually bounded sequence on the live fleet:
//
//	remove   — the source's RemoveStream drains the chain, suspends the
//	           victim's slot and re-solves the survivors (bound: its
//	           transition envelope);
//	release  — ForgetParked + mpsoc.ReleaseStream export the suspended slot
//	           from the live pair and gate the producer;
//	settle   — wait out the ring transit, clamped to the source model's
//	           max τ̂s(K) (bound: the settle itself);
//	admit    — the migrant placement loop evacuation uses too: the target's
//	           AdmitMigrated re-solves with the replay-residue floor
//	           (bound: its envelope, plus every charged backoff).
//
// The measured trigger→resume cost of every move is recorded against that
// composed bound as a LadderStep with rung "rebalance".

import (
	"fmt"
	"math/big"

	"accelshare/internal/admission"
	"accelshare/internal/cfifo"
	"accelshare/internal/core"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// RebalanceConfig parameterises the periodic rebalancing loop.
type RebalanceConfig struct {
	// Every is the tick period; 0 disables rebalancing entirely.
	Every sim.Time
	// Start is the first tick (0 = Every); Stop ends ticking (0 = never) —
	// campaigns stop the loop before their conformance cut so no move lands
	// inside the measured window.
	Start, Stop sim.Time
	// HighWater triggers a rebalance when the serving chains' exact
	// utilisation spread exceeds it (nil = 1/4). A plan drives the spread
	// down to half of it: the gap is the hysteresis band.
	HighWater *big.Rat
	// MaxMovesPerTick caps one tick's plan (0 = 1).
	MaxMovesPerTick int
}

// moveBudget caps how many times one stream may be rebalanced over its
// lifetime. It stops oscillation that the hysteresis band alone cannot: a
// stream whose rate dominates the spread could otherwise bounce between two
// chains on alternating ticks.
const moveBudget = 2

func (rc *RebalanceConfig) validate() error {
	if rc.Every <= 0 {
		return nil
	}
	if rc.HighWater != nil && rc.HighWater.Sign() <= 0 {
		return fmt.Errorf("cluster: rebalance high water must be positive")
	}
	if rc.Stop != 0 && rc.Stop < rc.Start {
		return fmt.Errorf("cluster: rebalance stop before start")
	}
	return nil
}

// marks returns the high-water mark and the low-water mark, half of it.
func (rc *RebalanceConfig) marks() (high, low core.Load) {
	hw := rc.HighWater
	if hw == nil {
		hw = big.NewRat(1, 4)
	}
	return core.LoadOf(hw), core.LoadOf(new(big.Rat).Mul(hw, big.NewRat(1, 2)))
}

func (rc *RebalanceConfig) maxMoves() int {
	if rc.MaxMovesPerTick <= 0 {
		return 1
	}
	return rc.MaxMovesPerTick
}

// ChainTelemetry is one chain's slice of a FleetStats snapshot.
type ChainTelemetry struct {
	Name  string
	State string
	// Streams counts the live registry streams the chain owns.
	Streams int
	// Util is the admission model's exact utilisation Σ μs·ρ (zero for
	// chains that are not serving).
	Util core.Load
	// BufferPeak sums the high-water occupancies of the owned streams'
	// input and output C-FIFOs — the buffer-memory half of the load picture.
	BufferPeak int
}

// FleetStats is one tick's typed telemetry snapshot over the whole fleet.
type FleetStats struct {
	At     sim.Time
	Chains []ChainTelemetry
	// Parked counts shed streams awaiting readmission; Placing counts
	// streams between chains (unplaced or mid-move).
	Parked, Placing int
	// Spread is max − min utilisation over the serving chains (zero with
	// fewer than two serving chains).
	Spread core.Load
}

// Stats snapshots the fleet telemetry now (the rebalancer records one per
// tick; campaigns may sample it on their own schedule too). It reads each
// serving chain's cached load, so the snapshot allocates only the Chains
// slice it keeps.
//
//accellint:noalloc guard=TestStatsZeroAlloc
func (c *Controller) Stats() FleetStats {
	//accellint:alloc the snapshot's Chains slice, which the fleet log keeps
	fs := FleetStats{At: c.k.Now(), Chains: make([]ChainTelemetry, len(c.chains))}
	var lo, hi core.Load
	serving := false
	for pos, ci := range c.chains {
		ct := &fs.Chains[pos]
		ct.Name, ct.State = ci.name, ci.state.String()
		if ci.state == chainServing && ci.ctrl != nil {
			ct.Util = ci.ctrl.Load()
			if !serving || ct.Util.Cmp(lo) < 0 {
				lo = ct.Util
			}
			if !serving || ct.Util.Cmp(hi) > 0 {
				hi = ct.Util
			}
			serving = true
		}
	}
	// One registry pass buckets every stream by the chain that owns it
	// (-1: none).
	for _, si := range c.order {
		switch {
		case si.shed():
			fs.Parked++
		case si.phase == placing || si.phase == migrating:
			fs.Placing++
		}
		if si.chain < 0 {
			continue
		}
		ct := &fs.Chains[si.chain]
		ct.Streams++
		if si.st == nil || si.st.In == nil {
			continue
		}
		for _, f := range [2]*cfifo.FIFO{si.st.In, si.st.Out} {
			_, _, peak := f.BufferStats()
			ct.BufferPeak += peak
		}
	}
	fs.Spread = hi.Sub(lo)
	return fs
}

// FleetLog returns the per-tick telemetry history (append-only).
func (c *Controller) FleetLog() []FleetStats { return c.fleet }

// moveOp is one in-flight rebalance move.
type moveOp struct {
	composed
	si *streamInfo
	to *chainInfo
}

func (c *Controller) scheduleRebalance() {
	rc := &c.cfg.Rebalance
	if rc.Every <= 0 {
		return
	}
	first := rc.Start
	if first == 0 {
		first = rc.Every
	}
	if rc.Stop != 0 && first > rc.Stop {
		return
	}
	c.highWater, c.lowWater = rc.marks()
	c.k.ScheduleAt(first, c.rebalanceTick)
}

func (c *Controller) rebalanceTick() {
	rc := &c.cfg.Rebalance
	if next := c.k.Now() + rc.Every; rc.Stop == 0 || next <= rc.Stop {
		c.k.ScheduleAt(next, c.rebalanceTick)
	}
	stats := c.Stats()
	c.fleet = append(c.fleet, stats)
	if c.moving {
		return // a previous tick's move sequence is still in flight
	}
	for _, ci := range c.chains {
		if ci.state == chainServing && ci.ctrl != nil && ci.ctrl.Busy() {
			// A transition is draining somewhere: its outcome changes the
			// very models a plan would rank, so skip the whole tick rather
			// than race it. The next tick re-evaluates.
			return
		}
	}
	if stats.Spread.Cmp(c.highWater) <= 0 {
		return
	}

	// Index-parallel (serving chains ↔ models ↔ loads) in configuration
	// order, so solve.PlanRebalance's chain indices map back
	// deterministically.
	var serving []*chainInfo
	var models []*core.System
	var loads []core.Load
	for _, ci := range c.chains {
		if ci.state == chainServing && ci.ctrl != nil {
			serving = append(serving, ci)
			models = append(models, ci.ctrl.Model())
			loads = append(loads, ci.ctrl.Load())
		}
	}
	if len(serving) < 2 {
		return
	}
	var cands []solve.MoveCandidate
	for local, ci := range serving {
		model := models[local]
		for i := range model.Streams {
			si := c.streams[model.Streams[i].Name]
			if si == nil || si.resident || si.phase != live || si.deferDepart || si.chain != ci.pos {
				continue
			}
			if si.moves >= moveBudget {
				continue
			}
			residue := 0
			if si.st != nil && si.st.GW != nil {
				residue = si.st.GW.ReplayResidue()
			}
			cands = append(cands, solve.MoveCandidate{
				Name: si.name, Chain: local,
				Rate:    model.Streams[i].Rate,
				Residue: residue,
			})
		}
	}
	moves := solve.PlanRebalance(models, loads, cands, rc.maxMoves(), c.lowWater)
	if len(moves) == 0 {
		return
	}
	c.event(EvRebalance, "", "", fmt.Sprintf("spread=%s over high water %s; %d move(s) planned",
		stats.Spread.Rat().RatString(), c.highWater.Rat().RatString(), len(moves)))
	for _, mv := range moves {
		c.moveQueue = append(c.moveQueue, &moveOp{
			composed: composed{from: serving[mv.From]},
			si:       c.streams[mv.Name], to: serving[mv.To],
		})
	}
	c.nextMove()
}

func (c *Controller) nextMove() {
	for len(c.moveQueue) > 0 {
		op := c.moveQueue[0]
		c.moveQueue = c.moveQueue[1:]
		if c.startMove(op) {
			return
		}
	}
	c.moving = false
}

// startMove begins one move sequence; false means the move was skipped
// (stale plan) and the caller should try the next one.
func (c *Controller) startMove(op *moveOp) bool {
	si := op.si
	if si == nil || si.phase != live || si.deferDepart || si.chain != op.from.pos ||
		op.from.state != chainServing || op.from.ctrl == nil ||
		op.to.state != chainServing || op.to.ctrl == nil {
		return false
	}
	op.since = c.k.Now()
	// The settle clamp uses the source model max τ̂s(K) captured BEFORE the
	// removal commits: the departing victim's own block attempt is part of
	// what the settle must cover.
	settle := c.settle(op.from.ctrl.MaxTau())
	si.step(beginMove, -1)
	c.moving = true
	op.from.ctrl.RemoveStream(si.name, func(v admission.Verdict) {
		if !v.Accepted {
			// Busy, superseded or refused: nothing moved, nothing to park.
			c.abortMove(op, fmt.Sprintf("%s: %s", v.Reason, v.Detail))
			return
		}
		op.bound += v.BoundCycles
		c.releaseAndSettle(op, settle)
	})
	return true
}

// releaseAndSettle runs at the removal commit: the victim's slot is drained
// and suspended on the source pair. Export it, gate its producer, and wait
// out the interconnect settle before offering it to the target.
func (c *Controller) releaseAndSettle(op *moveOp, settle sim.Time) {
	si := op.si
	if _, ok := op.from.ctrl.ForgetParked(si.name); !ok {
		// Cannot happen (RemoveStream just parked it); fail loudly if it does.
		c.abortMove(op, "removed stream not parked")
		return
	}
	st, ex, err := c.ms.ReleaseStream(op.from.idx, si.name)
	if err != nil {
		c.abortMove(op, fmt.Sprintf("release: %v", err))
		return
	}
	st.In.BeginRepoint()
	si.step(release, -1) // in transit: no chain owns the pending transition
	si.st, si.export, si.m = st, ex, &migrant{si: si, op: op, leg: &op.composed}
	op.bound += uint64(settle)
	m := si.m
	c.k.Schedule(settle, func() { c.placeMigrant(m, 0) })
}

// abortMove abandons op and the rest of this tick's plan, whose models are
// stale; the next tick re-plans from fresh telemetry. The victim stays
// live where it was, and a departure deferred during the removal is
// issued.
func (c *Controller) abortMove(op *moveOp, detail string) {
	op.si.step(endMove, op.si.chain)
	c.event(EvRebalance, op.from.name, op.si.name, "move aborted: "+detail)
	c.moveQueue, c.moving = nil, false
	c.departIfDeferred(op.si)
}
