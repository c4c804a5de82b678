package mpsoc

// Chain failover: the paper's Fig. 1 platform carries TWO entry/exit-gateway
// pairs on the shared ring. When the fault doctor convicts a whole chain —
// stalls spreading across distinct streams, meaning a tile, a link or the
// ring segment is sick, not one stream's data — per-stream recovery only
// burns retry budget. The FailoverController migrates every stream to the
// standby pair instead:
//
//	freeze    — retire the sick pair (gateway.FreezeForFailover), gate the
//	            source-side C-FIFO producers (cfifo.BeginRepoint)
//	settle    — wait out the worst-case in-flight residue: the primary's
//	            DrainTimeout, clamped to the outgoing configuration's max τ̂s
//	            (one block attempt is the longest anything can remain in
//	            flight)
//	migrate   — export stream state from the dead pair, re-point the C-FIFO
//	            endpoints to the standby's ring nodes, import every stream
//	            onto the paused standby
//	reprogram — one validated ApplySlots transaction sizes every migrated
//	            slot over the configuration bus, re-solved by Algorithm 1
//	            when the standby's timing differs from the primary's
//	resume    — the standby starts arbitration; the aborted block replays
//
// The measured cost (trigger → resume) is recorded against the derived
// bound: max τ̂s of the outgoing configuration plus the per-slot bus cost of
// the transition (Eq. 2 + the admission transition model). The controller
// adds no nondeterminism: given the same platform and fault plan, the
// failover lands on the same cycle every run.

import (
	"fmt"
	"slices"

	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// FailoverConfig parameterises a FailoverController.
type FailoverConfig struct {
	// Primary and Standby index MultiSystem.Chains. The standby chain must
	// have been built with ChainSpec.Standby (zero streams) and the same
	// accelerator count as the primary.
	Primary, Standby int
	// OnComplete observes the finished failover.
	OnComplete func(Record)
}

// Record documents one completed failover.
type Record struct {
	Reason                 string
	TriggeredAt, ResumedAt sim.Time
	// Names and Blocks list the migrated slots and their post-failover ηs.
	Names  []string
	Blocks []int64
	// ReplayWords counts input words of the aborted in-flight block that the
	// standby replays.
	ReplayWords int
	// SettleCycles + BusCycles = MeasuredCycles, checked against BoundCycles
	// = max τ̂s(outgoing) + SlotCost per slot.
	SettleCycles   uint64
	BusCycles      uint64
	MeasuredCycles uint64
	BoundCycles    uint64
	// Resolved reports whether a re-solve ran and stuck; ResolveErr carries
	// the reason the outgoing sizes were kept instead.
	Resolved   bool
	ResolveErr string
}

// FailoverController owns the primary→standby migration for one chain pair.
// It reads every stream's μs, Rs and ηs from the platform
// (Chain.LiveModel): the failover bound from the primary's live streams,
// and the survivor re-solve from the standby's once they have moved. The
// bound reads the checkpoint interval K and its snapshot cost from the
// primary's Recovery: with K set it uses the adjusted Eq. 2 term τ̂s(K)
// (core.TauHatCheckpointed), since checkpoint quiesces stretch each clean
// block while the migrated block's replay residue shrinks from O(ηs) to
// O(K).
type FailoverController struct {
	ms  *MultiSystem
	cfg FailoverConfig
	pri *Chain
	stb *Chain

	triggered bool
	rec       *Record
}

// NewFailover validates the chain pairing and returns a controller. It does
// not arm anything: call Arm for a doctor-driven trigger, or Trigger
// directly (a scripted or operator-initiated failover).
func NewFailover(ms *MultiSystem, cfg FailoverConfig) (*FailoverController, error) {
	if cfg.Primary == cfg.Standby {
		return nil, fmt.Errorf("failover: primary and standby must be distinct chains")
	}
	if cfg.Primary < 0 || cfg.Primary >= len(ms.Chains) || cfg.Standby < 0 || cfg.Standby >= len(ms.Chains) {
		return nil, fmt.Errorf("failover: chain index out of range")
	}
	pri, stb := ms.Chains[cfg.Primary], ms.Chains[cfg.Standby]
	if len(stb.Strs) != 0 {
		return nil, fmt.Errorf("failover: standby chain %q already has streams", stb.Spec.Name)
	}
	if len(stb.Tiles) != len(pri.Tiles) {
		return nil, fmt.Errorf("failover: standby chain %q has %d tiles, primary %q has %d",
			stb.Spec.Name, len(stb.Tiles), pri.Spec.Name, len(pri.Tiles))
	}
	if !pri.Spec.Recovery.Enabled {
		return nil, fmt.Errorf("failover: primary chain %q needs recovery enabled (replay snapshots)", pri.Spec.Name)
	}
	return &FailoverController{ms: ms, cfg: cfg, pri: pri, stb: stb}, nil
}

// Arm wires a fault doctor onto the primary pair's stall feed; its
// wedged-chain verdict triggers the failover.
func (fc *FailoverController) Arm(dcfg fault.DoctorConfig) (*fault.Doctor, error) {
	d, err := fault.NewDoctor(fc.ms.K, dcfg, func(v fault.Verdict) {
		// The verdict is latched (at most once) and Trigger latches too, so
		// a second error here is impossible; ignore it for the signature.
		_ = fc.Trigger(v.Reason)
	})
	if err != nil {
		return nil, err
	}
	fc.pri.Pair.SetStallObserver(d.NoteStall)
	return d, nil
}

// Triggered reports whether the failover has fired.
func (fc *FailoverController) Triggered() bool { return fc.triggered }

// Record returns the completed failover's record (nil while pending).
func (fc *FailoverController) Record() *Record { return fc.rec }

// Trigger starts the failover immediately (at most once): freeze the
// primary, gate the producers, and schedule the migration after the settle
// delay. Reason is recorded verbatim.
func (fc *FailoverController) Trigger(reason string) error {
	if fc.triggered {
		return fmt.Errorf("failover: already triggered")
	}
	fc.triggered = true
	now := fc.ms.K.Now()

	// The outgoing configuration is the one the live slots run before the
	// freeze: admission-control transitions may have re-sized them since
	// build.
	outgoing, _ := fc.pri.LiveModel()
	maxTau := fc.pri.MaxTau(outgoing)

	// The settle is the primary's flush settle, its DrainTimeout. One block
	// attempt bounds how long anything stays in flight; a longer settle
	// would push the measured cost past the bound for no extra safety.
	settle := fc.pri.Spec.DrainTimeout
	if maxTau > 0 && settle > sim.Time(maxTau) {
		settle = sim.Time(maxTau)
	}
	if settle <= 0 {
		return fmt.Errorf("failover: primary chain %q has no drain timeout to settle by", fc.pri.Spec.Name)
	}
	if err := fc.pri.Pair.FreezeForFailover(); err != nil {
		return err
	}
	for _, st := range fc.pri.Strs {
		if st.GW.Released {
			// A rebalanced-away stream's tombstone: the real stream (and its
			// FIFOs) belongs to another chain now.
			continue
		}
		st.In.BeginRepoint()
	}
	fc.ms.K.Schedule(settle, func() { fc.migrate(reason, now, settle, maxTau) })
	return nil
}

// migrate runs after the settle delay: every in-flight word has landed, so
// the dead chain can be scrubbed and the streams moved.
func (fc *FailoverController) migrate(reason string, triggeredAt, settle sim.Time, maxTau uint64) {
	allExports, err := fc.pri.Pair.ExportStreams()
	if err != nil {
		panic(fmt.Sprintf("failover: export: %v", err))
	}
	// Drop Released tombstones: a rebalanced-away stream's slot exports an
	// empty placeholder (no FIFOs, no state) — the real stream already lives
	// on another chain. Strs and the export table are index-parallel, so one
	// filter keeps them paired.
	var exports []gateway.StreamExport
	var moved []*Stream
	for i, e := range allExports {
		if e.Stream.Released {
			continue
		}
		exports = append(exports, e)
		moved = append(moved, fc.pri.Strs[i])
	}
	replay := 0
	for _, e := range exports {
		replay += len(e.Replay)
	}
	fc.pri.Strs = nil
	decims := make([]int64, len(moved))
	for i, st := range moved {
		decims[i] = st.Spec.Decimation
		st.In.RepointConsumer(fc.stb.EntryNode)
		st.Out.RepointProducer(fc.stb.ExitNode)
	}
	err = fc.stb.Pair.RequestPause(func() {
		slots := make([]int, len(exports))
		for i, e := range exports {
			slot, err := fc.stb.Pair.ImportStream(e)
			if err != nil {
				panic(fmt.Sprintf("failover: import %q: %v", e.Stream.Name, err))
			}
			slots[i] = slot
		}
		fc.stb.Strs = append(fc.stb.Strs, moved...)

		rec := &Record{
			Reason:       reason,
			TriggeredAt:  triggeredAt,
			ReplayWords:  replay,
			SettleCycles: uint64(settle),
		}
		blocks := make([]int64, len(exports))
		for i, e := range exports {
			rec.Names = append(rec.Names, e.Stream.Name)
			blocks[i] = e.Stream.Block
		}
		if !sameTiming(fc.pri.Spec.Timing(), fc.stb.Spec.Timing()) {
			solved, rerr := fc.resolve(decims)
			if rerr == nil {
				// A slot whose aborted block must replay cannot shrink below
				// its resume point plus residue: the standby resumes the new
				// block at ReplayStart (the last committed checkpoint, 0
				// without checkpointing) and seeds it with the replay words,
				// so a smaller ηs would silently drop the tail, and an
				// OutBlock below the committed count would end the block
				// before the consumer's position. Growth is fine — the
				// replay fills in from the resume point and fresh words
				// complete the larger block.
				for i, e := range exports {
					if solved[i] < e.ReplayStart+int64(len(e.Replay)) || solved[i]/decims[i] < e.Committed {
						rerr = fmt.Errorf("re-solved eta for %q (%d) below its resume point %d + replay residue (%d words, %d committed)",
							e.Stream.Name, solved[i], e.ReplayStart, len(e.Replay), e.Committed)
						break
					}
				}
			}
			if rerr != nil {
				rec.ResolveErr = rerr.Error()
			} else {
				blocks = solved
				rec.Resolved = true
			}
		}
		rec.Blocks = blocks

		updates := make([]gateway.SlotUpdate, len(exports))
		for i := range exports {
			updates[i] = gateway.SlotUpdate{
				Stream: slots[i], SetBlock: blocks[i], SetOutBlock: blocks[i] / decims[i],
			}
		}
		rec.BusCycles = uint64(SlotCost) * uint64(len(updates))
		rec.BoundCycles = maxTau + rec.BusCycles
		if err := fc.stb.Pair.ApplySlots(updates, SlotCost, func() {
			fc.stb.Pair.Resume()
			rec.ResumedAt = fc.ms.K.Now()
			rec.MeasuredCycles = uint64(rec.ResumedAt - rec.TriggeredAt)
			fc.pri.Pair.RecordFailoverSpan(rec.TriggeredAt, rec.ResumedAt)
			fc.stb.Pair.RecordFailoverSpan(rec.TriggeredAt, rec.ResumedAt)
			fc.rec = rec
			if fc.cfg.OnComplete != nil {
				fc.cfg.OnComplete(*rec)
			}
		}); err != nil {
			panic(fmt.Sprintf("failover: reprogram standby: %v", err))
		}
	})
	if err != nil {
		panic(fmt.Sprintf("failover: pause standby: %v", err))
	}
}

// sameTiming reports whether two chains have the same temporal model:
// outgoing block sizes stay feasible on a standby of the same timing.
func sameTiming(a, b core.Chain) bool {
	return slices.Equal(a.AccelCosts, b.AccelCosts) && a.EntryCost == b.EntryCost &&
		a.ExitCost == b.ExitCost
}

// resolve re-runs Algorithm 1 for the migrated streams against the
// standby's live model, warm-started from the outgoing block sizes, and
// returns the blocks by standby slot, which is the migrated streams' order
// (NewFailover wants a standby without streams): a slot that is not live
// (quarantined or suspended) keeps its outgoing ηs. Granularity is each
// stream's decimation (decims), so the exit-gateway OutBlock stays exact.
func (fc *FailoverController) resolve(decims []int64) ([]int64, error) {
	model, live := fc.stb.LiveModel()
	start := make([]int64, len(live))
	gran := make([]int64, len(live))
	for i, slot := range live {
		start[i], gran[i] = model.Streams[i].Block, decims[slot]
	}
	res, err := model.LeastFixedPoint(start, gran, core.DefaultRounds)
	if err != nil {
		return nil, err
	}
	blocks := make([]int64, len(fc.stb.Strs))
	for slot, st := range fc.stb.Strs {
		blocks[slot] = st.GW.Block
	}
	for i, slot := range live {
		blocks[slot] = res.Blocks[i]
	}
	return blocks, nil
}
