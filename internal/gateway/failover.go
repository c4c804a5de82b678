package gateway

// Chain failover: when a whole accelerator chain wedges (stuck tile, severed
// ring segment), recovery-by-retry on the same pair is futile. The paper's
// Fig. 1 platform carries a second entry-/exit-gateway pair on the same ring;
// this file is the gateway half of migrating every stream to it. The
// FailoverController (internal/mpsoc) drives the sequence:
//
//	FreezeForFailover  — retire the sick pair mid-flight, abort the active
//	                     block attempt (epoch bump, as a flush would)
//	   ... settle ...  — wait out the worst-case interconnect transit so
//	                     every in-flight word and credit has landed
//	ExportStreams      — clear the dead chain and deep-copy each stream's
//	                     engine state + in-flight block residue out
//	ImportStream       — re-register each stream on the (paused) standby
//	                     pair, seeding the replay of the aborted block
//
// The freeze is terminal: a failed pair's entry and exit state machines are
// permanent no-ops, and its tiles are never reprogrammed again.

import (
	"fmt"
	"slices"

	"accelshare/internal/sim"
)

// StreamExport is one stream's migratable state, deep-copied so nothing
// aliases the failed pair once the standby starts mutating. Engines is the
// per-tile engine state the standby restores before the stream's next block
// (nil when the stream never ran on the failed chain); Replay and Committed
// carry the aborted in-flight block: the input words its attempt consumed
// and the output words the consumer had already received. ReplayStart is
// the absolute input position the replay window starts at — 0 without
// checkpointing (Engines is then the block-start snapshot and the whole
// consumed prefix is in Replay), the last committed checkpoint boundary
// with it (Engines is the checkpoint snapshot, Replay holds only the ≤ K
// words consumed since, and the standby resumes mid-block).
type StreamExport struct {
	Stream      *Stream
	Engines     [][]uint64
	Replay      []sim.Word
	Committed   int64
	ReplayStart int64
}

// Failed reports whether the pair was retired by FreezeForFailover.
func (p *Pair) Failed() bool { return p.failed }

// SetStallObserver installs fn to observe watchdog stalls in addition to
// Config.OnStall — the failover controller's tap, parallel to the admission
// controller's quarantine observer. fn runs before the recovery decision, so
// a verdict that triggers FreezeForFailover pre-empts the flush/retry path.
func (p *Pair) SetStallObserver(fn func(stream int)) { p.stallObs = fn }

// FreezeForFailover retires the pair: both state machines become no-ops and
// the in-flight block attempt (if any) is aborted exactly as a flush would
// abort it — epoch bump cancelling every scheduled completion — except that
// the consumed-word snapshot is kept for replay on the standby instead of
// being retried here. An in-flight block can only be migrated when recovery
// is enabled, because only the recovery path records the replay snapshot.
func (p *Pair) FreezeForFailover() error {
	if p.failed {
		return fmt.Errorf("gateway %s: already failed over", p.cfg.Name)
	}
	if p.state != stIdle && !p.cfg.Recovery.Enabled {
		return fmt.Errorf("gateway %s: cannot freeze mid-block without recovery (no replay snapshot)", p.cfg.Name)
	}
	p.failed = true
	if p.state != stIdle {
		p.abortedStream = p.active
	}
	p.blockEpoch++ // cancel in-flight DMA/exit/watchdog/idle-retry events
	p.dmaBusy = false
	p.holding = false
	p.exitBusy = false
	p.exitHolding = false
	p.pauseCb = nil // a pending admission pause dies with the pair
	if n := int64(len(p.stage)); n > 0 {
		// Value-exact staged words never reached the consumer: roll the
		// watermark back so the export's Committed is exactly what the
		// consumer holds and the standby regenerates the rest.
		p.exitCount -= n
		p.stage = nil
	}
	return nil
}

// ExportStreams clears the dead chain (tile aborts, NI queues, link credit
// state — the same scrub a flush performs) and returns every stream's
// migratable state. The caller must have waited out the interconnect settle
// delay after FreezeForFailover so no word is still in flight toward this
// pair's nodes. The pair's stream table is emptied and its entry gateway
// unsubscribed from their FIFOs: the streams now belong to whoever imports
// them.
//
//accellint:deepcopy
func (p *Pair) ExportStreams() ([]StreamExport, error) {
	if !p.failed {
		return nil, fmt.Errorf("gateway %s: ExportStreams requires a frozen pair", p.cfg.Name)
	}
	for _, t := range p.tiles {
		t.Abort()
	}
	p.exitNI.Clear()
	p.link.Reset()
	for _, t := range p.tiles {
		if l := t.Downstream(); l != nil {
			l.Reset()
		}
	}
	exports := make([]StreamExport, len(p.streams))
	for i, s := range p.streams {
		ex := StreamExport{Stream: s}
		switch {
		case i == p.abortedStream && p.state != stReconfig:
			// Mid-block abort (streaming/draining/flushing/checkpointing):
			// the standby must replay from the engine snapshot at the replay
			// window's start — block start, or the last committed checkpoint
			// — so the regenerated outputs match the ones the consumer
			// already received.
			ex.Engines = cloneState(p.retryState)
			ex.Replay = append([]sim.Word(nil), p.blockBuf...)
			ex.Committed = p.exitCount
			ex.ReplayStart = p.blockBase
		case i == p.abortedStream:
			// Aborted during reconfiguration: the engines were never swapped
			// in and no word entered the chain, so the stream's standing
			// state (below) is also its block-start state. A migrated block
			// that was re-starting here still carries its replay residue.
			ex.Engines = p.standingState(i, s)
			ex.Replay = append([]sim.Word(nil), p.blockBuf...)
			ex.Committed = p.resumeCommitted
			ex.ReplayStart = p.blockBase
		default:
			ex.Engines = p.standingState(i, s)
		}
		exports[i] = ex
		if !s.Released {
			p.unsubscribe(s)
		}
	}
	p.streams = nil
	p.live = nil
	return exports, nil
}

// standingState deep-copies stream i's between-blocks engine state: the live
// engine objects when this stream's state is currently swapped in, its saved
// snapshot otherwise, nil when it never ran.
//
//accellint:deepcopy
func (p *Pair) standingState(i int, s *Stream) [][]uint64 {
	if !s.loaded {
		return nil
	}
	if i == p.loadedStream {
		st := make([][]uint64, len(s.Engines))
		for t, e := range s.Engines {
			st[t] = e.SaveState(nil)
		}
		return st
	}
	return cloneState(s.saved)
}

// unsubscribe undoes AddStream's wake-up subscriptions: a stream the pair
// gave up must no longer wake its entry gateway with every word and ack.
func (p *Pair) unsubscribe(s *Stream) {
	s.In.UnsubscribeData(s.wake)
	s.Out.UnsubscribeSpace(s.wake)
	s.wake = nil
}

func cloneState(st [][]uint64) [][]uint64 {
	if st == nil {
		return nil
	}
	out := make([][]uint64, len(st))
	for i, w := range st {
		out[i] = append([]uint64(nil), w...)
	}
	return out
}

// ImportStream registers an exported stream on this (standby) pair. The pair
// must be paused — stream import is part of a staged mode transition, ended
// by the ApplySlots/Resume that re-sizes and re-arms the migrated slots. The
// export's engine state becomes the stream's saved snapshot, and any aborted
// in-flight block is seeded for replay at its next beginBlock.
//
//accellint:deepcopy
func (p *Pair) ImportStream(e StreamExport) (int, error) {
	if p.failed {
		return 0, fmt.Errorf("gateway %s: cannot import onto a failed pair", p.cfg.Name)
	}
	if !p.paused {
		return 0, fmt.Errorf("gateway %s: ImportStream requires a paused pair", p.cfg.Name)
	}
	s := e.Stream
	if err := p.AddStream(s); err != nil {
		return 0, err
	}
	// AddStream allocated a fresh saved-state table; restore the export's.
	// Cloned, not adopted: the import must not retain the caller's slices,
	// so a re-used or doubly-imported export cannot couple two pairs.
	s.loaded = e.Engines != nil
	if s.loaded {
		s.saved = cloneState(e.Engines)
	}
	s.pendingReplay = append([]sim.Word(nil), e.Replay...)
	s.pendingCommitted = e.Committed
	s.pendingReplayStart = e.ReplayStart
	p.recheck = true
	return len(p.streams) - 1, nil
}

// ReleaseSlot exports one suspended stream's migratable state from a LIVE
// pair — the rebalancer's half of a hot migration, where ExportStreams is the
// failover's whole-chain half. The slot must already be Suspended (the
// admission controller's RemoveStream drained and suspended it inside a
// staged transition, so no block is in flight and any replay residue sits in
// pendingReplay). The slot itself is replaced by a Released tombstone: slot
// tables never shrink, so every later slot keeps its index and the pending
// admission-event log stays valid; the tombstone is permanently suspended and
// owns no FIFOs or engine state. The pair leaves its live-slot index and
// stops being woken by the departing stream's FIFOs.
//
//accellint:deepcopy
func (p *Pair) ReleaseSlot(slot int) (StreamExport, error) {
	if p.failed {
		return StreamExport{}, fmt.Errorf("gateway %s: ReleaseSlot on a failed pair (use ExportStreams)", p.cfg.Name)
	}
	if slot < 0 || slot >= len(p.streams) {
		return StreamExport{}, fmt.Errorf("gateway %s: ReleaseSlot %d out of range [0,%d)", p.cfg.Name, slot, len(p.streams))
	}
	s := p.streams[slot]
	if s.Released {
		return StreamExport{}, fmt.Errorf("gateway %s: slot %d (%q) already released", p.cfg.Name, slot, s.Name)
	}
	if !s.Suspended {
		return StreamExport{}, fmt.Errorf("gateway %s: ReleaseSlot %d (%q) requires a suspended stream", p.cfg.Name, slot, s.Name)
	}
	ex := StreamExport{
		Stream:      s,
		Engines:     p.standingState(slot, s),
		Replay:      append([]sim.Word(nil), s.pendingReplay...),
		Committed:   s.pendingCommitted,
		ReplayStart: s.pendingReplayStart,
	}
	// The suspension belongs to this pair's slot table (RemoveStream parked
	// the slot inside its staged transition); the tombstone keeps it, the
	// departing stream must arrive at its importer ready to arbitrate.
	s.Suspended = false
	p.unsubscribe(s)
	p.streams[slot] = &Stream{Name: s.Name, Suspended: true, Released: true}
	if j, ok := slices.BinarySearch(p.live, slot); ok {
		p.live = slices.Delete(p.live, j, j+1)
	}
	if p.loadedStream == slot {
		// The released stream's engine state was the one swapped into the
		// tiles; the export deep-copied it, so nothing is loaded any more.
		p.loadedStream = -1
	}
	if p.active == slot {
		// Defensive: a suspended slot cannot be mid-block, but never leave
		// active pointing at a tombstone.
		p.active = -1
	}
	return ex, nil
}

// RecordFailoverSpan appends a controller-level failover span (Stream = -1)
// to the activity trace, when recording is enabled.
func (p *Pair) RecordFailoverSpan(start, end sim.Time) {
	if !p.cfg.RecordActivity {
		return
	}
	p.Activities = append(p.Activities, Activity{Stream: -1, Kind: ActFailover, Start: start, End: end})
}
