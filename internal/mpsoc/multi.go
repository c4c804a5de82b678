package mpsoc

// Multi-chain assembly: the paper's Fig. 1 shows TWO entry/exit-gateway
// pairs (G0/G1 and G2/G3), each managing its own set of accelerator tiles
// on the shared dual ring. BuildMulti constructs any number of such chains
// on one interconnect; Build is BuildMulti for exactly one chain.

import (
	"fmt"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// ChainSpec groups one gateway pair with its accelerators and streams.
type ChainSpec struct {
	Name                string
	EntryCost, ExitCost sim.Time
	Mode                gateway.ReconfigMode
	Arbiter             gateway.Arbitration
	BusBase, BusPerWord sim.Time
	DisableSpaceCheck   bool
	// DrainTimeout arms the gateway's progress watchdog (0 = disabled) and
	// Recovery configures flush/retry/quarantine on expiry.
	DrainTimeout sim.Time
	Recovery     gateway.Recovery
	// Faults, when non-nil, is armed against this chain: engine-level
	// faults wrap the streams' engines, wedge faults are scheduled on the
	// chain's links / the data ring, and lost-idle faults install the
	// gateway's DropIdle hook.
	Faults *fault.Plan
	// RecordTurnarounds keeps per-block latency records on every stream.
	RecordTurnarounds bool
	// ReserveSlots pre-provisions ring attachment points (one source and one
	// sink tile each) for streams admitted at runtime via AttachStream. The
	// ring topology is fixed in hardware, so online admission can only use
	// slots that were reserved when the platform was built.
	ReserveSlots int
	// Standby marks a chain built with zero streams, held in reserve as a
	// failover target (NewFailover): the paper's second gateway pair. Its
	// accelerator tiles sit idle until streams migrate onto them.
	Standby bool
	Accels  []AccelSpec
	Streams []StreamSpec
}

// Timing is the chain's temporal model (Eq. 2): the gateway costs ε and
// δ, each accelerator's ρA in chain order, and the NI FIFO depth of the
// shallowest tile (the model has one α for every hop). It reads the spec
// alone, so a model can be made before the platform is built, and it
// describes the built chain exactly.
func (cs ChainSpec) Timing() core.Chain {
	c := core.Chain{
		Name:       cs.Name,
		EntryCost:  uint64(cs.EntryCost),
		ExitCost:   uint64(cs.ExitCost),
		AccelCosts: make([]uint64, len(cs.Accels)),
	}
	for i, as := range cs.Accels {
		c.AccelCosts[i] = uint64(as.Cost)
		if ni := int64(as.niDepth()); i == 0 || ni < c.NICapacity {
			c.NICapacity = ni
		}
	}
	return c
}

// MultiConfig assembles a platform with several shared chains on one ring.
type MultiConfig struct {
	HopLatency        sim.Time
	RecordOutputTimes bool
	RecordActivity    bool
	// UseSlottedRing backs the interconnect with the cycle-true slotted
	// mechanism instead of the transaction-level abstraction (slower to
	// simulate, validates the abstraction at system level).
	UseSlottedRing bool
	Chains         []ChainSpec
}

// Chain is the runtime state of one assembled chain.
type Chain struct {
	Spec  ChainSpec
	Pair  *gateway.Pair
	Tiles []*accel.Tile
	Strs  []*Stream
	// Links holds the chain's credit-controlled links in order: 0 = entry
	// gateway -> first tile, i = the link after tile i-1 (fault Site
	// convention).
	Links []*accel.Link
	// EntryNode/ExitNode are the gateway pair's ring attachment points;
	// reserved holds the pre-provisioned (source, sink) ring-node pairs
	// still available to AttachStream (ChainSpec.ReserveSlots).
	EntryNode, ExitNode int
	reserved            [][2]int
}

// ReservedSlots reports how many runtime stream slots remain unclaimed.
func (ch *Chain) ReservedSlots() int { return len(ch.reserved) }

// MultiSystem is a platform with several gateway pairs.
type MultiSystem struct {
	K      *sim.Kernel
	Net    *ring.Dual
	Chains []*Chain

	// retired observes each stream ReclaimStream retires
	// (SetRetireObserver).
	retired func(*Stream)
	// spares holds retired streams' storage for the next AttachStream,
	// newest last. Every attach pops one, so it never holds more spares
	// than streams were attached or retiring when it was last empty.
	spares []spare
}

// spare is the pointer-free storage a retired stream hands to the next
// stream attached: both C-FIFO buffers and its Outputs and block-record
// arrays, truncated to length 0. It holds no object of the stream itself,
// so a retired stream stays collectable.
type spare struct {
	in, out []sim.Word
	outputs []sim.Word
	records []gateway.BlockRecord
}

// BuildMulti assembles the multi-chain platform. Ring node layout per
// chain: entry gateway, accelerator tiles, exit gateway; then one source
// and one sink tile per stream, all chains concatenated.
func BuildMulti(cfg MultiConfig) (*MultiSystem, error) {
	if len(cfg.Chains) == 0 {
		return nil, fmt.Errorf("mpsoc: no chains")
	}
	// First pass: compute the ring size.
	total := 0
	for _, ch := range cfg.Chains {
		if len(ch.Accels) == 0 {
			return nil, fmt.Errorf("mpsoc: chain %q has no accelerators", ch.Name)
		}
		if len(ch.Streams) == 0 && !ch.Standby {
			return nil, fmt.Errorf("mpsoc: chain %q has no streams", ch.Name)
		}
		if ch.ReserveSlots < 0 {
			return nil, fmt.Errorf("mpsoc: chain %q: ReserveSlots must not be negative, got %d", ch.Name, ch.ReserveSlots)
		}
		total += 2 + len(ch.Accels) + 2*(len(ch.Streams)+ch.ReserveSlots)
	}
	k := sim.NewKernel()
	var net *ring.Dual
	var err error
	if cfg.UseSlottedRing {
		net, err = ring.NewDualSlotted(k, total)
	} else {
		net, err = ring.NewDual(k, total, cfg.HopLatency)
	}
	if err != nil {
		return nil, err
	}
	ms := &MultiSystem{K: k, Net: net}
	next := 0
	for ci := range cfg.Chains {
		ch, err := ms.assembleChain(cfg, cfg.Chains[ci], &next)
		if err != nil {
			return nil, fmt.Errorf("chain %q: %w", cfg.Chains[ci].Name, err)
		}
		ms.Chains = append(ms.Chains, ch)
	}
	return ms, nil
}

// assembleChain wires one gateway pair and its streams, consuming ring
// nodes from *next.
func (m *MultiSystem) assembleChain(top MultiConfig, spec ChainSpec, next *int) (*Chain, error) {
	k, net := m.K, m.Net
	take := func() int { n := *next; *next++; return n }
	entryN := take()
	var accelN []int
	for range spec.Accels {
		accelN = append(accelN, take())
	}
	exitN := take()

	ch := &Chain{Spec: spec, EntryNode: entryN, ExitNode: exitN}
	for _, as := range spec.Accels {
		ch.Tiles = append(ch.Tiles, accel.NewTile(as.Name, k, as.Cost, as.niDepth()))
	}
	entryLink := accel.NewLink("entry->"+spec.Accels[0].Name, k, net,
		entryN, accelN[0], ch.Tiles[0].In())
	ch.Links = append(ch.Links, entryLink)
	for i := 0; i+1 < len(ch.Tiles); i++ {
		l := accel.NewLink(fmt.Sprintf("%s->%s", spec.Accels[i].Name, spec.Accels[i+1].Name), k, net,
			accelN[i], accelN[i+1], ch.Tiles[i+1].In())
		ch.Tiles[i].SetDownstream(l)
		ch.Links = append(ch.Links, l)
	}
	exitNI := sim.NewQueue(spec.Name+".exit.ni", 2)
	lastLink := accel.NewLink(spec.Accels[len(spec.Accels)-1].Name+"->exit", k, net,
		accelN[len(accelN)-1], exitN, exitNI)
	ch.Tiles[len(ch.Tiles)-1].SetDownstream(lastLink)
	ch.Links = append(ch.Links, lastLink)

	gwCfg := gateway.Config{
		Name:              spec.Name,
		EntryNode:         entryN,
		ExitNode:          exitN,
		EntryCost:         spec.EntryCost,
		ExitCost:          spec.ExitCost,
		Mode:              spec.Mode,
		Arbiter:           spec.Arbiter,
		BusBase:           spec.BusBase,
		BusPerWord:        spec.BusPerWord,
		RecordOutputTimes: top.RecordOutputTimes,
		RecordActivity:    top.RecordActivity,
		DisableSpaceCheck: spec.DisableSpaceCheck,
		DrainTimeout:      spec.DrainTimeout,
		Recovery:          spec.Recovery,
		RecordTurnarounds: spec.RecordTurnarounds,
	}
	if spec.Faults != nil {
		gwCfg.DropIdle = spec.Faults.IdleDropper()
		// Wedge faults target this chain's links and the shared data ring;
		// the cycle-true slotted transport has no wedge hooks, so WedgeNode
		// faults require the transaction-level ring.
		dataRing, _ := net.Data.(*ring.Ring)
		if err := spec.Faults.ArmWedges(k, ch.Links, dataRing); err != nil {
			return nil, err
		}
	}
	pair, err := gateway.NewPair(k, net, gwCfg, ch.Tiles, entryLink, exitNI)
	if err != nil {
		return nil, err
	}
	ch.Pair = pair

	for i := range spec.Streams {
		srcN := take()
		sinkN := take()
		st, err := buildStream(k, net, ch, spec.Streams[i], i, srcN, sinkN, spare{})
		if err != nil {
			return nil, err
		}
		if err := pair.AddStream(st.GW); err != nil {
			return nil, err
		}
		ch.Strs = append(ch.Strs, st)
		m.startStreamTasks(st)
	}
	for r := 0; r < spec.ReserveSlots; r++ {
		srcN := take()
		sinkN := take()
		ch.reserved = append(ch.reserved, [2]int{srcN, sinkN})
	}
	return ch, nil
}

// buildStream wires one stream's C-FIFOs and gateway slot (without
// registering it with the pair or starting its tasks): shared between
// build-time assembly and runtime AttachStream. The stream is built on sp's
// storage; the zero spare allocates it.
func buildStream(k *sim.Kernel, net *ring.Dual, ch *Chain, ss StreamSpec, idx, srcN, sinkN int, sp spare) (*Stream, error) {
	if ss.Decimation < 1 {
		ss.Decimation = 1
	}
	if ss.Block%ss.Decimation != 0 {
		return nil, fmt.Errorf("stream %q block %d not a multiple of decimation %d",
			ss.Name, ss.Block, ss.Decimation)
	}
	in, err := cfifo.NewOn(k, net, cfifo.Config{
		Name: ss.Name + ".in", Capacity: ss.InCapacity,
		ProducerNode: srcN, ConsumerNode: ch.EntryNode,
		AckBatch: ackBatch(ss.InCapacity),
	}, sp.in)
	if err != nil {
		return nil, err
	}
	// One read-counter update per output word: the ack traffic every golden
	// pins.
	out, err := cfifo.NewOn(k, net, cfifo.Config{
		Name: ss.Name + ".out", Capacity: ss.OutCapacity,
		ProducerNode: ch.ExitNode, ConsumerNode: sinkN,
		AckBatch: 1,
	}, sp.out)
	if err != nil {
		return nil, err
	}
	engines := ss.Engines
	if ch.Spec.Faults != nil && ch.Spec.Faults.EngineFaults(idx) {
		engines = ch.Spec.Faults.WrapEngines(idx, engines)
	}
	st := &Stream{Spec: ss, In: in, Out: out, Outputs: sp.outputs}
	st.GW = &gateway.Stream{
		Name:        ss.Name,
		Block:       ss.Block,
		OutBlock:    ss.Block / ss.Decimation,
		Reconfig:    ss.Reconfig,
		In:          in,
		Out:         out,
		Engines:     engines,
		Suspended:   ss.StartSuspended,
		Turnarounds: sp.records,
	}
	return st, nil
}

// startStreamTasks launches the stream's source and sink tasks unless the
// spec marks them external.
func (m *MultiSystem) startStreamTasks(st *Stream) {
	if !st.Spec.ExternalSource {
		startSourceTask(m.K, st)
	}
	if !st.Spec.ExternalSink {
		m.startSinkTask(st)
	}
}

// AttachStream admits a new stream to a RUNNING chain using one of its
// reserved ring slots. The chain's gateway pair must be paused at a block
// boundary (gateway.RequestPause): the slot is registered Suspended when
// ss.StartSuspended is set, so the admission controller can activate it
// atomically with the survivors' new block sizes in one ApplySlots
// transaction. The stream's source and sink tasks start immediately —
// samples buffer in the input C-FIFO until the slot is activated. The
// stream is built on the storage the newest retired stream left (its
// C-FIFO buffers, outputs and block records) when its buffers have the
// capacities ss asks for; that storage is dropped otherwise.
func (m *MultiSystem) AttachStream(chainIdx int, ss StreamSpec) (*Stream, error) {
	if chainIdx < 0 || chainIdx >= len(m.Chains) {
		return nil, fmt.Errorf("mpsoc: chain %d out of range", chainIdx)
	}
	ch := m.Chains[chainIdx]
	if len(ch.reserved) == 0 {
		return nil, fmt.Errorf("mpsoc: chain %q has no reserved stream slots", ch.Spec.Name)
	}
	nodes := ch.reserved[0]
	idx := len(ch.Strs)
	st, err := buildStream(m.K, m.Net, ch, ss, idx, nodes[0], nodes[1], m.popSpare(ss))
	if err != nil {
		return nil, err
	}
	if _, err := ch.Pair.AddStreamLive(st.GW); err != nil {
		return nil, err
	}
	ch.reserved = ch.reserved[1:]
	st.ringHome = chainIdx
	st.ringNodes = nodes
	st.reclaimable = true
	ch.Strs = append(ch.Strs, st)
	m.startStreamTasks(st)
	return st, nil
}

// AdoptStream moves one exported stream onto chain chainIdx: the per-stream
// evacuation primitive of the fleet control plane. Where a full failover
// migrates every slot of a dead pair to one standby, evacuation re-places
// each stream individually on whichever surviving chain admits it. The
// caller must have frozen the source pair (gateway.FreezeForFailover), gated
// the stream's input producer (cfifo.BeginRepoint) and waited out the settle
// delay; the target pair must be paused (the import runs inside an admission
// transition). Unlike AttachStream, no reserved ring slot is consumed — the
// stream keeps its existing source/sink ring nodes, only the C-FIFO gateway
// endpoints are re-pointed.
func (m *MultiSystem) AdoptStream(chainIdx int, st *Stream, e gateway.StreamExport) (int, error) {
	if chainIdx < 0 || chainIdx >= len(m.Chains) {
		return 0, fmt.Errorf("mpsoc: chain %d out of range", chainIdx)
	}
	ch := m.Chains[chainIdx]
	slot, err := ch.Pair.ImportStream(e)
	if err != nil {
		return 0, err
	}
	st.In.RepointConsumer(ch.EntryNode)
	st.Out.RepointProducer(ch.ExitNode)
	ch.Strs = append(ch.Strs, st)
	return slot, nil
}

// ReleaseStream detaches one suspended stream from a LIVE chain for
// rebalancing: the inverse of AdoptStream. The admission controller must
// have removed the stream first (drain, suspend, survivor re-solve), so no
// block is in flight. The gateway slot is swapped for a Released tombstone
// (slot indices never shift — the zombie-slot precedent) and so is the
// chain's Strs entry, keeping the two tables parallel for chainReport. The
// caller owns the returned stream and export, gates its producer
// (cfifo.BeginRepoint), waits out the settle delay, and hands both to the
// target controller's AdmitMigrated/AdoptStream. Streams are matched by name
// scanning backwards so the newest same-name slot wins over zombies.
func (m *MultiSystem) ReleaseStream(chainIdx int, name string) (*Stream, gateway.StreamExport, error) {
	ch, slot, err := m.slotOf(chainIdx, name)
	if err != nil {
		return nil, gateway.StreamExport{}, err
	}
	st := ch.Strs[slot]
	ex, err := ch.Pair.ReleaseSlot(slot)
	if err != nil {
		return nil, gateway.StreamExport{}, err
	}
	ch.entomb(slot)
	return st, ex, nil
}

// slotOf finds the newest unreleased slot of chain chainIdx that carries
// the stream name.
func (m *MultiSystem) slotOf(chainIdx int, name string) (*Chain, int, error) {
	if chainIdx < 0 || chainIdx >= len(m.Chains) {
		return nil, 0, fmt.Errorf("mpsoc: chain %d out of range", chainIdx)
	}
	ch := m.Chains[chainIdx]
	for slot := len(ch.Strs) - 1; slot >= 0; slot-- {
		if gw := ch.Strs[slot].GW; gw.Name == name && !gw.Released {
			return ch, slot, nil
		}
	}
	return nil, 0, fmt.Errorf("mpsoc: chain %q has no stream %q", ch.Spec.Name, name)
}

// entomb mirrors the gateway tombstone the pair left at slot, so ch.Strs
// stays index-parallel with the pair's slot table. The tombstone keeps the
// stream's name and nothing else of its spec, so that it keeps neither
// engines nor source reachable; it claims an external source and sink so a
// stray StartSource on it can never start a task against nil FIFOs, and
// its zero Overflows is what chainReport reads for the slot.
func (ch *Chain) entomb(slot int) {
	ch.Strs[slot] = &Stream{
		Spec: StreamSpec{Name: ch.Strs[slot].Spec.Name, ExternalSource: true, ExternalSink: true},
		GW:   ch.Pair.Streams()[slot],
	}
}

// ReclaimStream retires a departed stream and returns its reserved ring
// attachment points to its home chain's pool, so a long-serving fleet can
// admit an unbounded sequence of stream lifetimes through a bounded set of
// ring slots. The admission controller must have removed the stream first
// (drained, suspended, survivors re-solved) — ReclaimStream then swaps the
// slot for a tombstone exactly like a rebalance release (indices stable)
// but builds no export (gateway.Pair.RetireSlot): the stream is gone, not
// migrating.
//
// The stream's C-FIFOs release their ring bindings, so that nothing on the
// platform keeps the stream reachable: the input's two and the output's
// producer binding at once, the output's consumer binding once every word
// written to it has been read. Output words still on the ring at the reclaim
// are read and acknowledged as before; the sink task retires the stream
// right after the last one. The retire observer (SetRetireObserver) then
// gets the stream, whose state is final, and the stream's storage then
// serves the next AttachStream. A stream whose sink is external
// retires only when its output has drained by the reclaim; otherwise its
// reader owns the output and it stays bound. A periodic sink task keeps
// ticking after the retirement, and so keeps its stream reachable.
func (m *MultiSystem) ReclaimStream(chainIdx int, name string) error {
	ch, slot, err := m.slotOf(chainIdx, name)
	if err != nil {
		return err
	}
	st := ch.Strs[slot]
	if err := ch.Pair.RetireSlot(slot); err != nil {
		return err
	}
	ch.entomb(slot)
	st.StopSource()
	if st.reclaimable {
		home := m.Chains[st.ringHome]
		home.reserved = append(home.reserved, st.ringNodes)
		st.reclaimable = false
	}
	st.In.ReleaseProducer()
	st.In.ReleaseConsumer()
	st.Out.ReleaseProducer()
	if st.Out.Drained() {
		m.retire(st)
	} else {
		st.retiring = true
	}
	return nil
}

// retire completes a reclaimed stream's retirement once its output has
// drained: the output's consumer binding goes, the retire observer gets
// the stream, and then its storage moves to the spare list. The stream
// keeps none of it: its FIFOs have no buffer left and its Outputs and
// block records are nil.
func (m *MultiSystem) retire(st *Stream) {
	st.retiring = false
	st.Out.ReleaseConsumer()
	if m.retired != nil {
		m.retired(st)
	}
	sp := spare{
		in:      st.In.DetachStorage(),
		out:     st.Out.DetachStorage(),
		outputs: st.Outputs[:0],
		records: st.GW.Turnarounds[:0],
	}
	st.Outputs, st.GW.Turnarounds = nil, nil
	m.spares = append(m.spares, sp)
}

// popSpare takes the newest spare off the list. It returns it if its
// buffers have ss's capacities and the zero spare (allocate afresh)
// otherwise, dropping the misfit.
func (m *MultiSystem) popSpare(ss StreamSpec) spare {
	n := len(m.spares)
	if n == 0 {
		return spare{}
	}
	sp := m.spares[n-1]
	m.spares[n-1] = spare{}
	m.spares = m.spares[:n-1]
	if len(sp.in) != ss.InCapacity || len(sp.out) != ss.OutCapacity {
		return spare{}
	}
	return sp
}

// SetRetireObserver installs fn, called once per stream ReclaimStream
// retires, after the stream's last output word has been read: its counters
// and outputs are final, and the interconnect no longer refers to it. The
// stream's storage (C-FIFO buffers, Outputs, block records) is reclaimed
// once fn returns, so fn must copy what it keeps of them. A later call
// replaces the observer.
func (m *MultiSystem) SetRetireObserver(fn func(*Stream)) { m.retired = fn }

// StartSource (re)starts a stream's built-in source task after StopSource:
// a readmitted stream starts producing again, and a shed or rebalanced
// stream resumes once it lands on its new chain. Any still-running loop is
// superseded, so calling it repeatedly leaves exactly one task.
func (m *MultiSystem) StartSource(st *Stream) {
	if st.Spec.ExternalSource {
		return
	}
	st.sourceGen++
	startSourceTask(m.K, st)
}

// Run starts every gateway pair and advances the simulation.
func (m *MultiSystem) Run(horizon sim.Time) {
	for _, ch := range m.Chains {
		ch.Pair.Start()
	}
	m.K.Run(horizon)
}

// Report collects per-chain measurements.
func (m *MultiSystem) Report() []Report {
	var out []Report
	for _, ch := range m.Chains {
		out = append(out, chainReport(m.K, ch))
	}
	return out
}

func chainReport(k *sim.Kernel, ch *Chain) Report {
	total, rec, str := ch.Pair.Busy()
	r := Report{Cycles: total, ReconfigCycles: rec, StreamingCycles: str}
	busy := float64(rec + str)
	if busy > 0 {
		r.StreamingShare = float64(str) / busy
		r.ReconfigShare = float64(rec) / busy
	}
	for i, snap := range ch.Pair.Snapshot() {
		sr := StreamReport{
			Name:          snap.Name,
			Blocks:        snap.Blocks,
			SamplesIn:     snap.SamplesIn,
			SamplesOut:    snap.SamplesOut,
			Overflows:     ch.Strs[i].Overflows,
			MaxTurnaround: snap.MaxTurnaround,
			PendingWait:   ch.Pair.PendingWait(i),
			Stalls:        snap.Stalls,
			Retries:       snap.Retries,
			Quarantined:   snap.Quarantined,
			QuarantinedAt: snap.QuarantinedAt,
		}
		if total > 0 {
			sr.OutputRate = float64(snap.SamplesOut) / float64(total)
		}
		r.PerStream = append(r.PerStream, sr)
	}
	for _, t := range ch.Tiles {
		if total > 0 {
			r.TileBusy = append(r.TileBusy, float64(t.BusyCycles)/float64(total))
		} else {
			r.TileBusy = append(r.TileBusy, 0)
		}
	}
	return r
}
