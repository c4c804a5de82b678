package admission

// Migration admission: evacuating a wedged chain re-places each of its
// streams on a surviving chain one at a time. Unlike AddStream, the stream
// already exists — it carries exported gateway state (a replay residue of at
// most K words and a committed-output watermark) and its own ring nodes, so
// the target controller must not consume a reserved slot, and the re-solved
// ηs must not shrink below the residue's resume point. The actual adoption
// (C-FIFO re-point + gateway import) is the caller's Import callback, run
// inside the paused transition exactly where AddStream attaches a new
// stream.

import (
	"fmt"
	"math/big"

	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/solve"
)

// MigrateRequest asks a controller to adopt a stream evacuated from another
// chain.
type MigrateRequest struct {
	Name string
	// Rate is the throughput constraint μs in samples per second.
	Rate *big.Rat
	// Reconfig is the stream's Rs in cycles.
	Reconfig uint64
	// Decimation is the stream's block granularity (≥ 1).
	Decimation int64
	// MinBlock floors the re-solved ηs. A migrated in-flight block resumes at
	// its export's ReplayStart and is seeded with the replay residue, and its
	// OutBlock must not end before the consumer's committed position — so the
	// caller sets MinBlock = max(ReplayStart + len(Replay),
	// Committed·Decimation). When Algorithm 1's minimum lands below it, the
	// block is bumped to the smallest decimation multiple ≥ MinBlock and the
	// whole assignment is re-verified exactly against Eq. 6
	// (core.FeasibleBlocks): growth above the solver's least fixed point is
	// not automatically feasible, so verify, don't trust.
	MinBlock int64
	// InCapacity/OutCapacity are the stream's existing C-FIFO capacities,
	// for the buffer-bound check under the new ηs.
	InCapacity, OutCapacity int
	// Import adopts the stream onto the controlled chain (re-point the
	// C-FIFOs, gateway.ImportStream) and returns its new gateway slot. It
	// runs inside the paused transition, after the decision is final.
	Import func() (int, error)
}

// AdmitMigrated admits an evacuated stream onto the controlled chain. The
// decision (re-solve, residue floor, buffer bounds) is made synchronously;
// when accepted, the staged transition (drain, import + reconfigure, resume)
// runs asynchronously and done fires once the platform streams under the new
// configuration. done fires immediately on rejection, and Import is not
// called — the caller keeps the export and can try the next chain.
func (c *Controller) AdmitMigrated(req MigrateRequest, done func(Verdict)) {
	name := req.Name
	if c.busy {
		c.reject(EvMigrate, name, ReasonBusy, "another transition is in flight", done)
		return
	}
	if c.pendingCanary != nil {
		c.reject(EvMigrate, name, ReasonBusy, "a canary probe is in flight", done)
		return
	}
	if req.Rate == nil || req.Rate.Sign() <= 0 {
		c.reject(EvMigrate, name, ReasonBadRequest, "missing or non-positive rate", done)
		return
	}
	if req.Import == nil {
		c.reject(EvMigrate, name, ReasonBadRequest, "missing import callback", done)
		return
	}
	if c.modelIndex(name) >= 0 || c.parked[name] != nil {
		c.reject(EvMigrate, name, ReasonBadRequest, "stream name already in use", done)
		return
	}
	decimation := req.Decimation
	if decimation < 1 {
		decimation = 1
	}

	// Candidate model: the live set plus the migrant.
	cand := c.model.Clone()
	cand.Streams = append(cand.Streams, core.Stream{
		Name:     name,
		Rate:     new(big.Rat).Set(req.Rate),
		Reconfig: req.Reconfig,
	})
	granularity := append(append([]int64(nil), c.decim...), decimation)
	res, err := c.solve(cand, granularity)
	if err != nil {
		reason, detail := rejectReason(err)
		c.reject(EvMigrate, name, reason, detail, done)
		return
	}
	blocks := append([]int64(nil), res.Blocks...)
	last := len(blocks) - 1
	if blocks[last] < req.MinBlock {
		b := req.MinBlock
		if rem := b % decimation; rem != 0 {
			b += decimation - rem
		}
		blocks[last] = b
		for i, bl := range blocks {
			cand.Streams[i].Block = bl
		}
		if v := solve.Verify(cand, granularity, blocks); !v.Feasible {
			c.reject(EvMigrate, name, ReasonInfeasible,
				fmt.Sprintf("replay residue floors eta at %d, infeasible alongside the survivors", b), done)
			return
		}
	} else {
		for i, bl := range blocks {
			cand.Streams[i].Block = bl
		}
	}
	caps := c.liveCaps()
	caps = append(caps, [2]int{req.InCapacity, req.OutCapacity})
	if detail, err := checkBuffers(cand, granularity, caps); err != nil {
		c.reject(EvMigrate, name, ReasonBadRequest, err.Error(), done)
		return
	} else if detail != "" {
		c.reject(EvMigrate, name, ReasonBufferBound, detail, done)
		return
	}

	v := Verdict{
		Accepted:    true,
		Reason:      ReasonAdmitted,
		Blocks:      assignment(cand, blocks),
		BoundCycles: c.transitionBound(len(cand.Streams)),
		SolveRounds: res.Rounds,
	}

	c.busy = true
	gen := c.gen
	requested := c.now()
	pair := c.chain().Pair
	err = pair.RequestPause(func() {
		if c.gen != gen {
			// A quarantine landed during the drain: cand, the solved blocks
			// and the slot map are stale. Abort before Import — the caller
			// still owns the export and can retry.
			pair.Resume()
			c.busy = false
			c.reject(EvMigrate, name, ReasonSuperseded, "stream set changed during drain", done)
			return
		}
		v.PauseWait = c.now() - requested
		slot, err := req.Import()
		if err != nil {
			pair.Resume()
			c.busy = false
			c.reject(EvMigrate, name, ReasonBadRequest, err.Error(), done)
			return
		}
		updates := c.slotUpdates(cand, blocks[:last])
		updates = append(updates, gateway.SlotUpdate{
			Stream: slot, SetBlock: blocks[last], SetOutBlock: blocks[last] / decimation,
		})
		v.BusCycles = uint64(c.cfg.PerSlotCost) * uint64(len(updates))
		err = pair.ApplySlots(updates, c.cfg.PerSlotCost, func() {
			pair.Resume()
			c.model = cand
			c.decim = granularity
			c.gwSlot = append(c.gwSlot, slot)
			c.gen++
			c.busy = false
			c.record(EvMigrate, name, &v)
			if done != nil {
				done(v)
			}
		})
		if err != nil {
			// The stream is already imported (validation makes this path
			// unreachable, but never leave an unaccounted live slot behind):
			// suspend it best-effort and park it so the name and slot stay
			// recoverable via Readmit.
			_ = pair.ApplySlots([]gateway.SlotUpdate{{Stream: slot, Suspend: true}}, c.cfg.PerSlotCost, nil)
			c.parked[name] = &parkedStream{
				slot:       slot,
				rate:       new(big.Rat).Set(req.Rate),
				reconfig:   req.Reconfig,
				decimation: decimation,
			}
			pair.Resume()
			c.busy = false
			c.reject(EvMigrate, name, ReasonBadRequest, err.Error()+"; stream parked, recover via readmit", done)
		}
	})
	if err != nil {
		c.busy = false
		c.reject(EvMigrate, name, ReasonBusy, err.Error(), done)
	}
}
