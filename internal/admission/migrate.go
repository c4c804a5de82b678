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
	"math/big"

	"accelshare/internal/core"
	"accelshare/internal/gateway"
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
	if !c.gate(EvMigrate, name, done) {
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
	decimation := max(req.Decimation, 1)
	g := c.grow(EvMigrate, newcomer{
		Stream:     core.Stream{Name: name, Rate: req.Rate, Reconfig: req.Reconfig},
		decimation: decimation,
		minBlock:   req.MinBlock,
		caps:       [2]int{req.InCapacity, req.OutCapacity},
		attach: func(block int64) (gateway.SlotUpdate, error) {
			slot, err := req.Import()
			return gateway.SlotUpdate{Stream: slot, SetBlock: block, SetOutBlock: block / decimation}, err
		},
		// The stream is already imported (validation makes this path
		// unreachable, but never leave an unaccounted live slot behind):
		// suspend it best-effort.
		silence: func(c *Controller, slot int) {
			_ = c.chain().Pair.ApplySlots([]gateway.SlotUpdate{{Stream: slot, Suspend: true}}, c.cfg.PerSlotCost, nil)
		},
	}, done)
	if g != nil {
		c.run(g)
	}
}
