package admission

// Migration admission: evacuating a wedged chain re-places each of its
// streams on a surviving chain one at a time. Unlike AddStream, the stream
// already exists — it carries exported gateway state (a replay residue of at
// most K words and a committed-output watermark) and its own ring nodes, so
// the target controller must not consume a reserved slot, and the re-solved
// ηs must not shrink below the residue's resume point. The adoption itself
// (C-FIFO re-point + gateway import, mpsoc.MultiSystem.AdoptStream) runs
// inside the paused transition exactly where AddStream attaches a new
// stream.

import (
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
)

// MigrateRequest asks a controller to adopt a stream evacuated from another
// chain: the stream itself, whose spec gives its rate, Rs, decimation and
// C-FIFO capacities, and the gateway state exported with it.
type MigrateRequest struct {
	Stream *mpsoc.Stream
	Export gateway.StreamExport
}

// minBlockOf floors a migrant's re-solved ηs. A migrated in-flight block
// resumes at its export's ReplayStart and is seeded with the replay
// residue, and its OutBlock must not end before the consumer's committed
// position: ηs ≥ max(ReplayStart + len(Replay), Committed·decimation). When
// Algorithm 1's minimum lands below it, grow bumps the block to the
// smallest decimation multiple at or above the floor and re-verifies the
// whole assignment exactly against Eq. 6: growth above the solver's least
// fixed point is not automatically feasible, so verify, don't trust.
func minBlockOf(e gateway.StreamExport, decimation int64) int64 {
	return max(e.ReplayStart+int64(len(e.Replay)), e.Committed*decimation)
}

// AdmitMigrated admits an evacuated stream onto the controlled chain. The
// decision (re-solve, residue floor, buffer bounds) is made synchronously;
// when accepted, the staged transition (drain, adopt + reconfigure, resume)
// runs asynchronously and done fires once the platform streams under the new
// configuration. done fires immediately on rejection, and the stream is not
// adopted — the caller keeps the export and can try the next chain.
func (c *Controller) AdmitMigrated(req MigrateRequest, done func(Verdict)) {
	st := req.Stream
	if st == nil {
		c.reject(EvMigrate, "", ReasonBadRequest, "no stream to adopt", done)
		return
	}
	if !c.gate(EvMigrate, st.Spec.Name, done) || !c.admissible(EvMigrate, &st.Spec, done) {
		return
	}
	g := c.grow(EvMigrate, newcomer{spec: &st.Spec, minBlock: minBlockOf(req.Export, st.Spec.Decimation)}, done)
	if g == nil {
		return
	}
	g.stream, g.export = st, req.Export
	c.run(g)
}
