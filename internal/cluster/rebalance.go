package cluster

// Fleet rebalancing: a deterministic periodic controller loop that keeps the
// serving chains' utilisation spread bounded by migrating streams hot — the
// PR 3/4 export/import machinery as a LOAD-BALANCING primitive, not only a
// fault-recovery one (UltraShare's scheduler/allocator split: the rebalancer
// decides who runs where now, each chain's admission controller proves
// feasibility).
//
// Every tick the loop snapshots per-chain telemetry into a FleetStats
// (exact big.Rat slot utilisation from the admission model, buffer-memory
// occupancy via cfifo.BufferStats, pending/parked queue depth from the
// registry) and compares the utilisation spread (max − min over serving
// chains) against a high-water mark. Above it, solve.PlanRebalance picks
// victims smallest-residue-first (replay stays ≤ K and the cheapest moves
// land first) and plans moves down toward a LOW-water mark — the hysteresis
// gap, plus per-stream move budgets and cooldowns, is what prevents two
// near-balanced chains from trading the same stream forever.
//
// One move is a composed, individually bounded sequence on the live fleet:
//
//	remove   — the source controller's RemoveStream drains the chain to a
//	           block boundary, suspends the victim's slot and re-solves the
//	           survivors (bound: its transition envelope);
//	release  — ForgetParked + mpsoc.ReleaseStream export the suspended slot
//	           from the LIVE pair (tombstoned, indices stable) and gate the
//	           producer (cfifo.BeginRepoint);
//	settle   — wait out the worst-case ring transit, clamped to the source
//	           model's max τ̂s(K) (bound: the settle itself);
//	admit    — the target's AdmitMigrated re-solves with the replay-residue
//	           floor and imports inside its paused transition (bound: its
//	           envelope, plus every charged backoff while targets are busy),
//	           through the migrant placement loop evacuation uses too.
//
// The measured trigger→resume cost of every move is recorded against that
// composed bound as a LadderStep with rung "rebalance".

import (
	"fmt"
	"math/big"
	"sort"

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
	// utilisation spread exceeds it (nil = 1/4); LowWater is the planning
	// target the spread is driven down to (nil = HighWater/2). The gap is
	// the hysteresis band.
	HighWater, LowWater *big.Rat
	// MaxMovesPerTick caps one tick's plan (0 = 1).
	MaxMovesPerTick int
	// MoveBudget caps how many times one stream may be rebalanced over its
	// lifetime (0 = 2); Cooldown is the minimum time between two moves of
	// the same stream (0 = none). Both stop oscillation that the hysteresis
	// band alone cannot: a stream whose rate dominates the spread could
	// otherwise bounce between two chains on alternating ticks.
	MoveBudget int
	Cooldown   sim.Time
}

func (rc *RebalanceConfig) validate() error {
	if rc.Every <= 0 {
		return nil
	}
	if rc.HighWater != nil && rc.HighWater.Sign() <= 0 {
		return fmt.Errorf("cluster: rebalance high water must be positive")
	}
	if rc.LowWater != nil && rc.HighWater != nil && rc.LowWater.Cmp(rc.HighWater) > 0 {
		return fmt.Errorf("cluster: rebalance low water above high water")
	}
	if rc.Stop != 0 && rc.Stop < rc.Start {
		return fmt.Errorf("cluster: rebalance stop before start")
	}
	return nil
}

func (rc *RebalanceConfig) highWater() *big.Rat {
	if rc.HighWater != nil {
		return rc.HighWater
	}
	return big.NewRat(1, 4)
}

func (rc *RebalanceConfig) lowWater() *big.Rat {
	if rc.LowWater != nil {
		return rc.LowWater
	}
	return new(big.Rat).Mul(rc.highWater(), big.NewRat(1, 2))
}

func (rc *RebalanceConfig) maxMoves() int {
	if rc.MaxMovesPerTick <= 0 {
		return 1
	}
	return rc.MaxMovesPerTick
}

func (rc *RebalanceConfig) moveBudget() int {
	if rc.MoveBudget <= 0 {
		return 2
	}
	return rc.MoveBudget
}

// ChainTelemetry is one chain's slice of a FleetStats snapshot.
type ChainTelemetry struct {
	Name  string
	State string
	// Streams counts the live registry streams the chain owns.
	Streams int
	// Util is the admission model's exact utilisation Σ μs·ρ (nil for
	// non-serving chains).
	Util *big.Rat
	// BufferWords is the words currently buffered across the owned streams'
	// input and output C-FIFOs (pushed − popped); BufferPeak sums their
	// high-water occupancies — the buffer-memory half of the load picture.
	BufferWords uint64
	BufferPeak  int
	// Pending counts uncommitted transitions (arrivals, migrations,
	// removals) targeting this chain.
	Pending int
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
	Spread *big.Rat
}

// Stats snapshots the fleet telemetry now (the rebalancer records one per
// tick; campaigns may sample it on their own schedule too).
func (c *Controller) Stats() FleetStats {
	fs := FleetStats{At: c.k.Now(), Spread: new(big.Rat), Chains: make([]ChainTelemetry, len(c.chains))}
	var lo, hi *big.Rat
	for pos, ci := range c.chains {
		ct := &fs.Chains[pos]
		ct.Name, ct.State = ci.name, ci.state.String()
		if ci.state == chainServing && ci.ctrl != nil {
			ct.Util = ci.ctrl.Utilization()
			if lo == nil || ct.Util.Cmp(lo) < 0 {
				lo = ct.Util
			}
			if hi == nil || ct.Util.Cmp(hi) > 0 {
				hi = ct.Util
			}
		}
	}
	// One registry pass buckets every stream by the chain its pending
	// transition targets and by the chain that owns it (chain and pendingOn
	// are positions in c.chains; -1 is no chain).
	for _, name := range c.order {
		si := c.streams[name]
		if si.inflight && si.pendingOn >= 0 {
			fs.Chains[si.pendingOn].Pending++
		}
		switch {
		case si.departed || si.rejected:
		case si.shed:
			fs.Parked++
		case si.chain < 0:
			fs.Placing++
		}
		if si.departed || si.shed || si.chain < 0 {
			continue
		}
		ct := &fs.Chains[si.chain]
		ct.Streams++
		if si.st == nil || si.st.In == nil {
			continue
		}
		for _, f := range []*cfifo.FIFO{si.st.In, si.st.Out} {
			pushed, popped, peak := f.BufferStats()
			ct.BufferWords += pushed - popped
			ct.BufferPeak += peak
		}
	}
	if lo != nil && hi != nil {
		fs.Spread.Sub(hi, lo)
	}
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
	if stats.Spread.Cmp(rc.highWater()) <= 0 {
		return
	}

	// Index-parallel (serving chains ↔ models) in configuration order, so
	// solve.PlanRebalance's chain indices map back deterministically.
	var serving []*chainInfo
	var models []*core.System
	for _, ci := range c.chains {
		if ci.state == chainServing && ci.ctrl != nil {
			serving = append(serving, ci)
			models = append(models, ci.ctrl.Model())
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
			if si == nil || si.resident || si.departed || si.shed ||
				si.inflight || si.moving || si.deferDepart || si.chain != ci.pos {
				continue
			}
			if si.moves >= rc.moveBudget() {
				continue
			}
			if rc.Cooldown > 0 && si.movedAt > 0 && c.k.Now()-si.movedAt < rc.Cooldown {
				continue
			}
			residue := 0
			if si.st != nil && si.st.GW != nil {
				residue = si.st.GW.ReplayResidue()
			}
			cands = append(cands, solve.MoveCandidate{
				Name: si.name, Chain: local,
				Rate:    new(big.Rat).Set(model.Streams[i].Rate),
				Residue: residue,
			})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Name < cands[b].Name })
	moves := solve.PlanRebalance(models, cands, rc.maxMoves(), rc.lowWater())
	if len(moves) == 0 {
		return
	}
	c.event(EvRebalance, "", "", fmt.Sprintf("spread=%s over high water %s; %d move(s) planned",
		stats.Spread.RatString(), rc.highWater().RatString(), len(moves)))
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
	if si == nil || si.departed || si.shed || si.inflight || si.moving ||
		si.deferDepart || si.chain != op.from.pos ||
		op.from.state != chainServing || op.from.ctrl == nil ||
		op.to.state != chainServing || op.to.ctrl == nil {
		return false
	}
	op.since = c.k.Now()
	// The settle clamp uses the source model max τ̂s(K) captured BEFORE the
	// removal commits: the departing victim's own block attempt is part of
	// what the settle must cover.
	settle := c.settle(op.from.ctrl.MaxTau())
	si.moving = true
	si.inflight = true
	si.pendingOn = op.from.pos
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
	si.chain = -1
	si.pendingOn = -1 // in transit: no chain owns the pending transition
	si.st = st
	si.export = ex
	si.hasExport = true
	op.bound += uint64(settle)
	m := &migrant{si: si, st: st, e: ex, op: op}
	c.k.Schedule(settle, func() { c.placeMigrant(m, 0) })
}

// abortMove abandons op and the rest of this tick's plan, whose models are
// stale; the next tick re-plans from fresh telemetry.
func (c *Controller) abortMove(op *moveOp, detail string) {
	op.si.moving = false
	op.si.inflight = false
	c.event(EvRebalance, op.from.name, op.si.name, "move aborted: "+detail)
	c.moveQueue = nil
	c.moving = false
}

func (c *Controller) finishMoveAborted(op *moveOp, why string) {
	op.si.moving = false
	op.si.inflight = false
	c.event(EvRebalance, "", op.si.name, "move ended: "+why)
	c.nextMove()
}
