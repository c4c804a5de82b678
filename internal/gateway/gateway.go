// Package gateway implements the paper's contribution in simulated
// hardware: the entry-gateway and exit-gateway tiles that multiplex blocks
// of samples from multiple real-time streams over a shared chain of
// accelerators.
//
// The entry gateway (paper §IV-C) round-robins over its streams. A stream
// is eligible only when (1) a full block of ηs samples is present in its
// input C-FIFO, (2) at least the block's worth of space is free in the
// OUTPUT C-FIFO — the space check that makes the CSDF model conservative —
// and (3) the accelerator pipeline is idle (the previous block fully passed
// the exit gateway). Serving a block means: reconfigure the accelerators
// over the configuration bus (save the outgoing stream's state, load the
// incoming one's — Rs cycles), then DMA the ηs samples to the first
// accelerator at ε cycles each under credit flow control.
//
// The exit gateway converts the hardware flow-controlled stream back to a
// software C-FIFO at δ cycles per sample and notifies the entry gateway
// when the last sample of the block has passed — the pipeline-idle signal.
//
// # Recovery ladder
//
// The pair is also the bottom of the platform's recovery ladder. A drain
// watchdog (Config.DrainTimeout, derived from Eq. 2's "+2"·c0 flush
// allowance) detects a block that stops making progress; Recovery.Enabled
// then aborts it — flush the chain, restore the engines' pre-block state,
// re-issue the block — up to RetryLimit times before the stream is
// quarantined (removed from arbitration so the survivors' Eq. 3
// interference bound shrinks instead of breaking). FreezeForFailover /
// ExportStreams / ImportStream hand a frozen pair's per-stream state to a
// standby pair on the same ring (see internal/mpsoc's FailoverController).
//
// With Recovery.Checkpoint = K the retry unit shrinks from the block to a
// K-input-sample sub-block: at every interior multiple of K (rounded up to
// the chain's decimation) the entry gateway quiesces the pipeline, pays
// Recovery.CheckpointCost on the configuration bus to snapshot the engine
// state, and advances the restart point — so a retry or a migrated
// in-flight block replays at most K words (core.ResumeBound) and the
// per-block bound becomes the adjusted Eq. 2 term
//
//	τ̂s(K) = Rs + (ηs + 2·⌈ηs/K⌉)·c0 + (⌈ηs/K⌉−1)·Csave
//
// (core.TauHatCheckpointed). Recovery.ValueExact additionally stages exit
// words until the enclosing sub-block commits, so a retried or migrated
// block is bit-identical downstream to a fault-free run — partial first
// attempts can never leak corrupted values. BlockRecord.Replayed measures
// the actual replay work per block; internal/conformance checks it against
// retries·K (Options.ReplayBound).
package gateway

import (
	"fmt"
	"slices"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// Arbitration selects the entry gateway's stream-selection policy.
type Arbitration int

// Arbitration policies.
const (
	// RoundRobin serves eligible streams in rotating order — the paper's
	// policy (§IV-C), which bounds every stream's interference to one block
	// of each other stream (Eq. 3, via [19]).
	RoundRobin Arbitration = iota
	// FixedPriority always serves the lowest-index eligible stream — the
	// ablation showing why RR matters: a saturated high-priority stream
	// starves the rest, so no finite ε̂s exists.
	FixedPriority
)

// ReconfigMode selects how context-switch time is charged.
type ReconfigMode int

// Reconfiguration cost models.
const (
	// ReconfigFixed charges the stream's Rs cycles as one bus transaction —
	// the paper's hardware-supported model (Rs = 4100 cycles).
	ReconfigFixed ReconfigMode = iota
	// ReconfigPerWord charges base + words·perWord for saving the outgoing
	// engines plus the same for loading the incoming ones — the paper's
	// prototype, which switched state "from software" and was dominated by
	// it (ablation A3).
	ReconfigPerWord
)

// Config parameterises a gateway pair.
type Config struct {
	Name string
	// EntryNode/ExitNode are the ring attachment points of the two tiles.
	EntryNode, ExitNode int
	// EntryCost is ε (the paper's prototype: 15 cycles/sample); ExitCost is
	// δ (1 cycle/sample).
	EntryCost, ExitCost sim.Time
	// Mode selects the reconfiguration cost model.
	Mode ReconfigMode
	// Arbiter selects the stream arbitration policy (default RoundRobin).
	Arbiter Arbitration
	// BusBase/BusPerWord parameterise ReconfigPerWord.
	BusBase, BusPerWord sim.Time
	// IdlePort is the entry-gateway ring port for pipeline-idle messages.
	IdlePort int
	// RecordOutputTimes keeps per-sample output timestamps on every stream
	// (memory-heavy; enable in tests and measurements only).
	RecordOutputTimes bool
	// DisableSpaceCheck is the A1 ablation: eligibility ignores the output
	// buffer — the check the paper adds over prior work [8]. With it
	// disabled the exit gateway can block mid-block on a slow consumer,
	// head-of-line blocking every other stream and breaking the temporal
	// model.
	DisableSpaceCheck bool
	// RecordActivity keeps a per-phase activity trace (reconfiguration,
	// streaming, draining spans per block) for Gantt rendering.
	RecordActivity bool
	// DrainTimeout is the watchdog's progress window, covering every phase
	// of a block (reconfiguration, streaming, draining): if a full window
	// passes without the block advancing — no sample issued, no sample
	// drained, no phase transition — the gateway declares the chain stalled
	// (a fault: sample loss inside an accelerator, a wedged link or NI, a
	// lost pipeline-idle notification) and invokes OnStall. The model gives
	// the natural setting: between two progress events the hardware can
	// never legitimately need more than ~2·c0 plus interconnect transit, so
	// a small multiple of c0 is safe. (Reconfiguration bus transfers count
	// as progress for as long as the bus is occupied, so Rs may exceed the
	// window.) 0 disables the watchdog. Historical name: the first version
	// only armed the drain phase.
	DrainTimeout sim.Time
	// OnStall is called once per detected stall with the stream index.
	OnStall func(stream int)
	// Recovery configures what happens after a stall is detected. The zero
	// value keeps the historical detect-only behaviour (the pair stays
	// wedged).
	Recovery Recovery
	// DropIdle, when non-nil, is consulted before the exit gateway sends a
	// pipeline-idle notification; returning true swallows the message —
	// the "lost idle notification" fault-injection hook.
	DropIdle func(stream int, block uint64) bool
	// RecordTurnarounds keeps one BlockRecord per completed block on every
	// stream, so tests and the fault campaign can check per-block latency
	// re-convergence after a disturbance.
	RecordTurnarounds bool
}

// Recovery configures watchdog-driven fault recovery. When enabled, a
// detected stall triggers flush → retry → (past RetryLimit) quarantine
// instead of leaving the pair wedged: the chain is cleared and its credit
// state reset, the aborted block is replayed from a local snapshot after an
// abort-and-reconfigure, and a stream whose block keeps stalling is removed
// from arbitration so the surviving streams return to their Eq. 2/4 bounds.
type Recovery struct {
	// Enabled turns recovery on.
	Enabled bool
	// RetryLimit is how many times one block may be retried before its
	// stream is quarantined (0 = quarantine on the first stall).
	RetryLimit int
	// FlushDelay is the settle time between aborting a block and clearing
	// the chain, so every in-flight word and credit on the interconnect has
	// landed. It must exceed the worst-case interconnect transit plus one
	// sample service; defaults to DrainTimeout, which satisfies that by
	// construction.
	FlushDelay sim.Time
	// OnQuarantine is called once per quarantined stream.
	OnQuarantine func(stream int)
	// Checkpoint is the checkpoint interval K in input samples: every K
	// samples the entry gateway quiesces the sub-block (stops issuing and
	// waits for the exit side to deliver every output of the samples issued
	// so far), snapshots the engines' state over the configuration bus and
	// records the exit-side commit watermark. A retry — and a
	// failover-migrated in-flight block — then resumes from the last
	// checkpoint instead of block start, bounding replay work to O(K)
	// (core.ResumeBound) where full-block replay is O(ηs). The quiesce and
	// snapshot stretch the clean-run service latency to τ̂s(K)
	// (core.TauHatCheckpointed). K is rounded up per stream to a multiple of
	// its decimation so every boundary maps to an exact output position.
	// 0 disables checkpointing (historical whole-block replay); the interval
	// is only honoured when Enabled is set (the snapshot rides the recovery
	// machinery).
	Checkpoint int64
	// CheckpointCost is the configuration-bus cost of one checkpoint
	// snapshot, charged like a reconfiguration (and, like Rs, counting as
	// watchdog progress while the bus is busy).
	CheckpointCost sim.Time
	// ValueExact holds exit-side output in a staging buffer until the block
	// completes or a checkpoint commits it, instead of committing each word
	// to the output C-FIFO as it drains. A retried or migrated block is then
	// bit-identical downstream to a fault-free run — not only count- and
	// timing-identical — because a first attempt's partial output is rolled
	// back on abort rather than leaking values the replay cannot reproduce.
	ValueExact bool
}

// ActivityKind labels one span of gateway activity.
type ActivityKind int

// Activity kinds.
const (
	ActReconfig ActivityKind = iota
	ActStream
	ActDrain
	// ActFlush is a recovery span: from stall detection to the chain being
	// cleared and credit state reset.
	ActFlush
	// ActFailover is a controller-level span covering a whole chain
	// failover (freeze → settle → migrate → resume); recorded with
	// Stream = -1 since it is not attributable to one stream.
	ActFailover
	// ActCheckpoint is a mid-block checkpoint span: stage drain, engine
	// snapshot over the configuration bus, watermark record.
	ActCheckpoint
)

func (k ActivityKind) String() string {
	switch k {
	case ActReconfig:
		return "reconfig"
	case ActStream:
		return "stream"
	case ActDrain:
		return "drain"
	case ActFlush:
		return "flush"
	case ActFailover:
		return "failover"
	case ActCheckpoint:
		return "checkpoint"
	}
	return "?"
}

// Activity is one recorded span.
type Activity struct {
	Stream int
	Kind   ActivityKind
	Start  sim.Time
	End    sim.Time
}

// Stream is one data stream bound to a gateway pair.
type Stream struct {
	Name string
	// Block is ηs in input samples; OutBlock is the samples the chain emits
	// per block (Block divided by the chain's total decimation). Block must
	// be a multiple of the chain's decimation so OutBlock is exact.
	Block, OutBlock int64
	// Reconfig is Rs for ReconfigFixed.
	Reconfig sim.Time
	// In is the input C-FIFO (the gateway is its consumer); Out is the
	// output C-FIFO (the exit gateway is its producer).
	In, Out *cfifo.FIFO
	// Engines holds one engine instance per accelerator tile in chain
	// order, owning this stream's configuration and state.
	Engines []accel.Engine

	saved  [][]uint64
	loaded bool
	// wake is the owning pair's gated subscription to In's data and Out's
	// space (AddStream), kept so the pair can unsubscribe it.
	wake *sim.Waker

	// Failover migration state: a stream imported mid-block carries the
	// input words its aborted attempt consumed on the failed chain
	// (pendingReplay) and how many of its output words the consumer had
	// already received (pendingCommitted). The next beginBlock replays the
	// words and discards the already-committed outputs at the exit gateway,
	// so the consumer sees every block position exactly once.
	// pendingReplayStart is the absolute input position the replay begins at
	// — 0 for a block-start replay, the last checkpoint boundary when the
	// failed chain was checkpointing — so samples the checkpoint already
	// covers are neither replayed nor regenerated.
	pendingReplay      []sim.Word
	pendingCommitted   int64
	pendingReplayStart int64

	// Stats.
	Blocks        uint64
	SamplesIn     uint64
	SamplesOut    uint64
	queued        bool
	queuedAt      sim.Time
	MaxTurnaround sim.Time
	OutTimes      []sim.Time

	// Fault/recovery stats. StallCount counts watchdog firings attributed
	// to this stream; RetryCount counts block replays; Quarantined is set
	// (at QuarantinedAt) when the stream was removed from arbitration.
	StallCount    uint64
	RetryCount    uint64
	Quarantined   bool
	QuarantinedAt sim.Time
	// Suspended removes the stream from arbitration by admission-control
	// decision — distinct from fault quarantine, which is involuntary and
	// carries retry history. Set it only through ApplySlots (or before
	// AddStreamLive), never while the stream's block is in flight.
	Suspended bool
	// Probation marks a readmitted stream whose next block is a canary: one
	// clean completion clears the flag (canary passed), one stall skips the
	// retry budget and re-quarantines immediately (canary failed). The
	// pair's canary hook observes both edges.
	Probation bool
	// Released marks a tombstone left behind by ReleaseSlot: the real stream
	// object migrated to another pair and this placeholder only keeps the
	// slot table's indices stable (slot tables never shrink — the zombie-slot
	// precedent). A released slot carries no FIFOs and no engine state and is
	// permanently Suspended; every arbitration and failover path skips it.
	Released bool
	// Turnarounds holds one record per completed block (RecordTurnarounds).
	Turnarounds []BlockRecord
}

// ReplayResidue is the number of input words the stream's next block must
// replay — the aborted-attempt residue it carries from a quarantine flush or
// a migration. With checkpointing every K samples it is ≤ K; the rebalancer
// uses it to pick cheap victims (smallest-residue-first).
func (s *Stream) ReplayResidue() int { return len(s.pendingReplay) }

// BlockRecord describes one completed block (Config.RecordTurnarounds):
// when it became eligible, when its service (first attempt) started, when
// the pipeline-idle notification closed it, and how many retries it needed.
// Done-Queued is the turnaround measured against γ̂s (Eq. 4); Done-Started
// is the service latency measured against τ̂s (Eq. 2).
type BlockRecord struct {
	Queued  sim.Time
	Started sim.Time
	Done    sim.Time
	Retries int
	// Replayed counts the input words re-issued beyond the block's first
	// pass — the measured replay work its retries cost. Bounded by
	// Retries × ηs without checkpointing, by Retries × K with a checkpoint
	// interval K (conformance.Options.ReplayBound checks exactly this).
	Replayed int64
}

type entryState int

const (
	stIdle entryState = iota
	stReconfig
	stStreaming
	stDraining
	// stFlushing: a stall was detected and the in-flight block aborted; the
	// pair waits out the flush settle delay before clearing the chain.
	stFlushing
	// stCheckpoint: the sub-block quiesced (entry stopped at the boundary,
	// exit delivered every output); the pair is committing the stage and
	// snapshotting engine state over the configuration bus.
	stCheckpoint
)

// Pair is one entry/exit gateway pair managing a chain of accelerator
// tiles.
type Pair struct {
	cfg     Config
	k       *sim.Kernel
	net     *ring.Dual
	tiles   []*accel.Tile
	bus     *accel.ConfigBus
	link    *accel.Link // entry gateway -> first accelerator
	exitNI  *sim.Queue  // last accelerator -> exit gateway NI
	streams []*Stream
	// live lists the indices of the slots that are not Released tombstones,
	// ascending. Slot tables never shrink, so arbitration walks this index
	// instead of the table: a wake costs O(unreleased slots), not O(every
	// stream the pair ever served).
	live []int

	// Entry state machine. dmaWord is the entry DMA's word: in service while
	// dmaBusy, waiting for a credit while holding. swapFrom is the stream
	// whose engines the pending reconfiguration saves (-1 = none).
	state    entryState
	active   int // index into streams
	rr       int
	sent     int64
	dmaBusy  bool
	holding  bool
	dmaWord  sim.Word
	swapFrom int
	step     *sim.Waker
	// recheck opens every stream's wake gate until the next entry step: a
	// slot-table change (ApplySlots, ImportStream) can make a stream
	// eligible, or leave its queued flag stale, without a FIFO edge.
	recheck bool

	// Recovery state. blockEpoch identifies the current block attempt; it
	// is bumped on every completion, flush, retry and quarantine so stale
	// scheduled events (watchdog checks, in-flight DMA/exit completions,
	// idle-message retries) cancel themselves. blockBuf snapshots the input
	// words consumed for the active block so a retry can replay them;
	// fetched indexes the next word of the current attempt. retryState is
	// the engines' state at block start; exitDiscard counts replayed output
	// words the exit gateway must swallow because they were already
	// committed before an abort.
	blockEpoch   uint64
	blockRetries int
	blockBuf     []sim.Word
	fetched      int
	retryState   [][]uint64
	exitDiscard  int64
	blockQueued  sim.Time
	blockStarted sim.Time

	// Checkpoint state. blockBase is the absolute input position the current
	// replay window starts at: 0 at block start, advanced to each committed
	// checkpoint boundary (blockBuf, fetched and sent are all relative to
	// it, and retryState holds the engines' snapshot AT blockBase). ckptEvery
	// is the active block's checkpoint interval, already rounded to the
	// stream's decimation; ckptNext is the next quiesce boundary (== Block
	// when no checkpoint remains). exitDelivered counts absolute output
	// positions the exit side has handled this attempt — committed, staged
	// or discarded — so the quiesce "sub-block fully drained" test works
	// even while a replay is still swallowing discards. stage holds
	// value-exact output words received but not yet committed to the output
	// C-FIFO; blockIssued and blockFresh measure replay work (Replayed =
	// blockIssued − blockFresh at completion).
	blockBase     int64
	ckptEvery     int64
	ckptNext      int64
	exitDelivered int64
	stage         []sim.Word
	blockIssued   int64
	blockFresh    int64
	// stageThen is what follows the pending stage drain; wdSnap is the
	// progress fingerprint the pending watchdog check compares against;
	// idleStream is the stream the pending idle notification names.
	stageThen  stageThen
	wdSnap     wdSnap
	idleStream int

	// Failover state. failed marks a pair retired by FreezeForFailover
	// (terminal: both state machines become no-ops); abortedStream is the
	// stream whose block the freeze aborted (-1 = none); loadedStream is
	// the stream whose engine objects hold live (not saved) state;
	// resumeCommitted seeds the exit counters when a migrated block
	// resumes; stallObs is the failover controller's stall observer,
	// parallel to Config.OnStall (which belongs to the platform builder).
	failed          bool
	abortedStream   int
	loadedStream    int
	resumeCommitted int64
	stallObs        func(stream int)

	// Exit state machine. exitWord is the exit DMA's word: in service while
	// exitBusy, waiting for ring space while exitHolding.
	exitBusy    bool
	exitCount   int64
	exitHolding bool
	exitWord    sim.Word
	exitStep    *sim.Waker

	// on holds the pair's event handlers, method values bound once in
	// NewPair. Every data-path event is scheduled with its handler and one
	// argument word — the block epoch, or the stream a reconfiguration
	// loads — instead of a closure per event. The entry and exit DMAs each
	// serve one word at a time, so the in-flight word lives on the pair.
	on struct {
		dmaDone, exitDone, stageStep, reconfigDone, retryDone,
		checkpointDone, watchdog, flushDone, pushIdle func(uint64)
		exitWake func()
	}

	// Utilisation accounting (cycles).
	ReconfigCycles  uint64
	StreamingCycles uint64
	lastStreamStart sim.Time
	startTime       sim.Time
	started         bool

	// Admission-control state: paused stops arbitration at the next block
	// boundary (RequestPause/Resume); pauseCb is the pending drain callback;
	// the hooks let an external controller observe canary and quarantine
	// edges without owning the Config.
	paused       bool
	pauseCb      func()
	onCanary     func(stream int, ok bool)
	onQuarantine func(stream int)

	// SlotCycles accounts configuration-bus cycles spent reprogramming
	// stream slots during admission-control mode transitions (kept apart
	// from ReconfigCycles, which is per-block context switching).
	SlotCycles uint64

	// Activities is the recorded span trace (when cfg.RecordActivity).
	Activities []Activity
	phaseStart sim.Time

	// Stalls counts watchdog firings (chain faults detected); Retries and
	// Quarantines count recovery actions; IdleDropped counts pipeline-idle
	// notifications swallowed by the DropIdle fault hook; LateIdles counts
	// idle notifications that arrived after their block had already been
	// aborted (a flush racing a slow notification).
	Stalls      uint64
	Retries     uint64
	Quarantines uint64
	IdleDropped uint64
	LateIdles   uint64

	// Checkpoints counts committed mid-block checkpoints; CheckpointCycles
	// accounts their configuration-bus snapshot time (kept apart from
	// ReconfigCycles, which is per-block context switching).
	Checkpoints      uint64
	CheckpointCycles uint64
}

// NewPair wires a gateway pair around existing accelerator tiles. The
// caller provides the entry link (to the first tile) and the exit NI queue
// (destination of the last tile's link); tiles are listed in chain order.
func NewPair(k *sim.Kernel, net *ring.Dual, cfg Config, tiles []*accel.Tile, entryLink *accel.Link, exitNI *sim.Queue) (*Pair, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("gateway %q: no accelerator tiles", cfg.Name)
	}
	if cfg.EntryCost == 0 {
		cfg.EntryCost = 1
	}
	if cfg.ExitCost == 0 {
		cfg.ExitCost = 1
	}
	p := &Pair{
		cfg: cfg, k: k, net: net, tiles: tiles,
		bus: accel.NewConfigBus(k, cfg.BusBase, cfg.BusPerWord), link: entryLink, exitNI: exitNI,
		active: -1, abortedStream: -1, loadedStream: -1,
	}
	p.step = sim.NewWaker(k, p.entryRun)
	p.exitStep = sim.NewWaker(k, p.exitRun)
	p.on.dmaDone = p.dmaDone
	p.on.exitDone = p.exitDone
	p.on.stageStep = p.stageStep
	p.on.reconfigDone = p.reconfigDone
	p.on.retryDone = p.retryDone
	p.on.checkpointDone = p.checkpointDone
	p.on.watchdog = p.watchdogCheck
	p.on.flushDone = p.flushDone
	p.on.pushIdle = p.pushIdle
	p.on.exitWake = p.exitStep.Wake
	// The entry DMA needs a credit or ring space only while it holds a
	// refused word; every other entry step is triggered elsewhere.
	holding := p.step.When(func() bool { return p.holding })
	entryLink.SubscribeCredits(holding)
	entryLink.SubscribeRingSpace(holding)
	exitNI.SubscribeData(p.exitStep)
	// Pipeline-idle notifications arrive on the entry tile's idle port.
	// They travel the counter-rotating credit ring: the entry gateway sits
	// UPSTREAM of the exit gateway, so the data-ring path would be almost a
	// full rotation — and would grow with every chain added to the platform,
	// leaking an O(ring-size) term into measured service latency that the
	// temporal model (Eq. 2) has no business covering. On the credit ring
	// the hop count is the chain length, a per-chain constant.
	net.Credit.Node(cfg.EntryNode).Bind(cfg.IdlePort, func(m ring.Message) {
		p.onPipelineIdle(int(m.W))
	})
	return p, nil
}

// AddStream registers a stream. Must be called before Start. The entry
// gateway subscribes to the stream's input data and output space through
// one gated alias (see streamCanAct); ReleaseSlot and ExportStreams undo
// both subscriptions.
func (p *Pair) AddStream(s *Stream) error {
	if s.Block <= 0 {
		return fmt.Errorf("gateway: stream %q needs a positive block size", s.Name)
	}
	if s.OutBlock <= 0 {
		return fmt.Errorf("gateway: stream %q needs a positive output block size", s.Name)
	}
	if len(s.Engines) != len(p.tiles) {
		return fmt.Errorf("gateway: stream %q has %d engines for %d tiles", s.Name, len(s.Engines), len(p.tiles))
	}
	if s.In.Capacity() < int(s.Block) {
		return fmt.Errorf("gateway: stream %q input FIFO %d < block %d (can never assemble a block)",
			s.Name, s.In.Capacity(), s.Block)
	}
	if s.Out.Capacity() < int(s.OutBlock) {
		return fmt.Errorf("gateway: stream %q output FIFO %d < out-block %d (space check can never pass)",
			s.Name, s.Out.Capacity(), s.OutBlock)
	}
	s.saved = make([][]uint64, len(s.Engines))
	p.streams = append(p.streams, s)
	p.live = append(p.live, len(p.streams)-1)
	s.wake = p.step.When(func() bool { return p.streamCanAct(s) })
	s.In.SubscribeData(s.wake)
	s.Out.SubscribeSpace(s.wake)
	return nil
}

// streamCanAct is the gate on stream s's FIFO wakes, read right after its
// input gained a word or its output gained space. The entry step acts on
// such an edge only when s is eligible and either trackQueued must stamp
// its queuedAt now (!queued) or the idle arbiter may start it — a stream
// whose queued flag survived a slot resize or an import is queued before
// it is eligible again. Streaming needs no FIFO wake: a block is whole
// before it starts, and the entry DMA's credit waits have their own gate.
// recheck covers eligibility that changed without a FIFO edge.
func (p *Pair) streamCanAct(s *Stream) bool {
	return p.recheck || p.eligible(s) && (!s.queued || p.state == stIdle)
}

// Streams returns the registered streams.
func (p *Pair) Streams() []*Stream { return p.streams }

// Start arms the gateway pair; wake-ups arriving earlier are ignored.
func (p *Pair) Start() {
	p.started = true
	p.startTime = p.k.Now()
	p.step.Wake()
}

// eligible reports whether stream s can be served now: not quarantined or
// suspended, full input block, reserved output space. A migrated stream's
// pending replay words count toward its block — they were consumed from
// the input FIFO on the failed chain and will be replayed locally.
func (p *Pair) eligible(s *Stream) bool {
	if s.Quarantined || s.Suspended {
		return false
	}
	need := int(s.Block-s.pendingReplayStart) - len(s.pendingReplay)
	if need < 0 {
		need = 0
	}
	if s.In.Len() < need {
		return false
	}
	if p.cfg.DisableSpaceCheck {
		return true
	}
	return s.Out.Space() >= int(s.OutBlock)
}

// trackQueued records the instant each stream becomes eligible, for
// turnaround (γs) measurement against Eq. 4.
func (p *Pair) trackQueued() {
	for _, i := range p.live {
		s := p.streams[i]
		if s.Quarantined || s.Suspended {
			continue
		}
		if !s.queued && p.eligible(s) && !(p.state != stIdle && i == p.active) {
			s.queued = true
			s.queuedAt = p.k.Now()
		}
	}
}

// entryRun is the entry gateway's step function.
func (p *Pair) entryRun() {
	if !p.started || p.failed {
		return
	}
	p.trackQueued()
	p.recheck = false
	switch p.state {
	case stIdle:
		// A pending pause wins over arbitration: the pair is at a block
		// boundary (drained), so the mode transition can begin.
		if p.pauseCb != nil {
			cb := p.pauseCb
			p.pauseCb = nil
			p.paused = true
			cb()
			return
		}
		if p.paused {
			return
		}
		p.tryStart()
	case stStreaming:
		p.pump()
	}
}

// tryStart serves the first ready live slot in arbitration order: from the
// first live slot at or after rr, wrapping (RoundRobin), or from the lowest
// (FixedPriority). Released slots are never ready, so skipping them keeps
// the order of a scan over the whole slot table.
func (p *Pair) tryStart() {
	n := len(p.live)
	if n == 0 {
		return
	}
	first := 0
	if p.cfg.Arbiter != FixedPriority {
		first, _ = slices.BinarySearch(p.live, p.rr)
	}
	for off := 0; off < n; off++ {
		i := p.live[(first+off)%n]
		if p.eligible(p.streams[i]) {
			p.beginBlock(i)
			return
		}
	}
}

// beginBlock starts serving stream i: reconfiguration first.
func (p *Pair) beginBlock(i int) {
	p.state = stReconfig
	prev := p.active
	p.active = i
	p.rr = (i + 1) % len(p.streams)
	s := p.streams[i]
	p.blockEpoch++
	p.blockRetries = 0
	p.blockBuf = p.blockBuf[:0]
	p.fetched = 0
	p.exitDiscard = 0
	p.resumeCommitted = 0
	p.blockBase = 0
	p.stage = p.stage[:0]
	if len(s.pendingReplay) > 0 || s.pendingCommitted > 0 || s.pendingReplayStart > 0 {
		// Migrated in-flight block: replay the words its aborted attempt
		// consumed on the failed chain, starting at the failed chain's last
		// checkpoint (block start when it was not checkpointing); output
		// words the consumer already received beyond that point are
		// regenerated and discarded at the exit.
		p.blockBuf = append(p.blockBuf, s.pendingReplay...)
		p.resumeCommitted = s.pendingCommitted
		p.blockBase = s.pendingReplayStart
		s.pendingReplay = nil
		s.pendingCommitted = 0
		s.pendingReplayStart = 0
	}
	p.blockIssued = 0
	// Fresh work excludes a migrated block's seeded replay residue: those
	// words were already issued once on the failed chain, so re-issuing them
	// here is replay, not first-pass work.
	p.blockFresh = s.Block - p.blockBase - int64(len(p.blockBuf))
	p.ckptEvery = 0
	if p.cfg.Recovery.Enabled && p.cfg.Recovery.Checkpoint > 0 {
		// Round K up to the stream's decimation so every boundary maps to an
		// exact output position (the quiesce test needs it).
		k := p.cfg.Recovery.Checkpoint
		d := s.Block / s.OutBlock
		if r := k % d; r != 0 {
			k += d - r
		}
		p.ckptEvery = k
	}
	p.blockStarted = p.k.Now()
	if s.queued {
		p.blockQueued = s.queuedAt
	} else {
		p.blockQueued = p.k.Now()
	}
	p.armWatchdog()

	var cost sim.Time
	switch p.cfg.Mode {
	case ReconfigFixed:
		cost = s.Reconfig
	case ReconfigPerWord:
		words := 0
		if prev >= 0 {
			for _, e := range p.streams[prev].Engines {
				words += e.StateWords()
			}
		}
		for _, e := range s.Engines {
			words += e.StateWords()
		}
		cost = 2*p.cfg.BusBase + sim.Time(words)*p.cfg.BusPerWord
	}
	p.ReconfigCycles += uint64(cost)
	p.phaseStart = p.k.Now()
	p.swapFrom = prev
	p.bus.TransferCyclesArg(cost, p.on.reconfigDone, uint64(i))
}

// reconfigDone completes beginBlock's reconfiguration: swap stream next's
// engines in and start streaming its block.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) reconfigDone(next uint64) {
	if p.failed {
		return // the pair froze for failover while the bus was busy
	}
	i := int(next)
	s := p.streams[i]
	if err := p.swapEngines(p.swapFrom, i); err != nil {
		//accellint:alloc unreachable: a failed swap is a modelling bug and panics
		panic(fmt.Sprintf("gateway %s: %v", p.cfg.Name, err))
	}
	if p.cfg.Recovery.Enabled {
		// Snapshot the engines' state at block start so a retry can
		// restore it (abort-and-reconfigure) and replay identically.
		p.retryState = saveEngines(p.retryState, s.Engines)
	}
	p.recordActivity(ActReconfig)
	// Configure the exit gateway for the new block (its own port on the
	// configuration bus, per Fig. 4b). A migrated block resumes with
	// its already-committed output words pre-counted; the ones the
	// replay will regenerate — positions past the resume point — are
	// marked for discard (see Stream.pendingReplay). A checkpointed
	// resume regenerates nothing before its watermark, so its discard
	// count is zero by construction.
	p.exitCount = p.resumeCommitted
	p.exitDelivered = p.blockBase / (s.Block / s.OutBlock)
	p.exitDiscard = p.resumeCommitted - p.exitDelivered
	p.resumeCommitted = 0
	p.ckptNext = p.nextCkptBoundary(s)
	p.state = stStreaming
	p.sent = 0
	p.lastStreamStart = p.k.Now()
	s.queued = true // ensure turnaround accounting has a reference
	p.pump()
}

// saveEngines refills dst with one state snapshot per engine, reusing the
// per-slot buffers dst already holds.
func saveEngines(dst [][]uint64, engines []accel.Engine) [][]uint64 {
	dst = slices.Grow(dst[:0], len(engines))[:len(engines)]
	for t, e := range engines {
		dst[t] = e.SaveState(dst[t][:0])
	}
	return dst
}

// swapEngines saves the outgoing stream's accelerator state and restores
// the incoming stream's. The tiles must be idle — reconfiguring while data
// is in flight would corrupt it (paper §IV: "the entry- and exit-gateway
// work together to ensure that the pipeline is idle").
func (p *Pair) swapEngines(prev, next int) error {
	if prev >= 0 {
		ps := p.streams[prev]
		for t, e := range ps.Engines {
			ps.saved[t] = e.SaveState(ps.saved[t][:0])
		}
	}
	ns := p.streams[next]
	for t, e := range ns.Engines {
		if ns.loaded {
			if err := e.LoadState(ns.saved[t]); err != nil {
				return fmt.Errorf("restore %s tile %d: %w", ns.Name, t, err)
			}
		}
		if err := p.tiles[t].SetEngine(e); err != nil {
			return err
		}
	}
	ns.loaded = true
	p.loadedStream = next
	return nil
}

// pump advances the DMA copying the active block into the chain.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) pump() {
	if p.state != stStreaming || p.dmaBusy {
		return
	}
	if p.holding {
		if !p.link.TrySend(p.dmaWord) {
			return // woken again by credits/ring space
		}
		p.holding = false
		p.sent++
		p.afterSample()
		return
	}
	s := p.streams[p.active]
	if p.blockBase+p.sent >= p.ckptNext {
		// Sub-block issued in full (ckptNext == Block when not
		// checkpointing): wait for the exit side to drain it — the quiesce
		// that makes the checkpoint snapshot consistent.
		return
	}
	var w sim.Word
	if p.fetched < len(p.blockBuf) {
		// Retried block: replay from the local snapshot instead of the
		// input C-FIFO (whose words were consumed by the aborted attempt).
		w = p.blockBuf[p.fetched]
	} else {
		var ok bool
		w, ok = s.In.TryRead()
		if !ok {
			//accellint:alloc unreachable: an underflow is an eligibility bug and panics
			panic(fmt.Sprintf("gateway %s: input underflow on %s — eligibility check broken", p.cfg.Name, s.Name))
		}
		if p.cfg.Recovery.Enabled {
			//accellint:alloc replay buffer grows to the largest block once, then is reused
			p.blockBuf = append(p.blockBuf, w)
		}
	}
	p.fetched++
	p.dmaBusy = true
	p.dmaWord = w
	p.k.ScheduleArg(p.cfg.EntryCost, p.on.dmaDone, p.blockEpoch)
}

// dmaDone completes the entry DMA's service of dmaWord: send it into the
// chain, or hold it until a credit returns.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) dmaDone(epoch uint64) {
	if p.blockEpoch != epoch {
		return // block aborted mid-DMA by a flush
	}
	p.dmaBusy = false
	p.StreamingCycles += uint64(p.cfg.EntryCost)
	if !p.link.TrySend(p.dmaWord) {
		p.holding = true
		return
	}
	p.sent++
	p.afterSample()
}

//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) afterSample() {
	s := p.streams[p.active]
	s.SamplesIn++
	p.blockIssued++
	if p.blockBase+p.sent >= s.Block {
		s.In.Ack() // release any batched input space promptly
		p.recordActivity(ActStream)
		p.state = stDraining
		return
	}
	if p.blockBase+p.sent >= p.ckptNext {
		s.In.Ack() // progressive input-space release at the boundary
		return     // quiesce: the exit side triggers the checkpoint once drained
	}
	p.pump()
}

// nextCkptBoundary returns the absolute input position of the next
// checkpoint quiesce after blockBase — the block end when checkpointing is
// off or no interior boundary remains.
func (p *Pair) nextCkptBoundary(s *Stream) int64 {
	if p.ckptEvery <= 0 {
		return s.Block
	}
	n := (p.blockBase/p.ckptEvery + 1) * p.ckptEvery
	if n >= s.Block {
		return s.Block
	}
	return n
}

// wdSnap is the watchdog's progress fingerprint: while a block is in
// flight, any change to it between two checks means the chain advanced.
type wdSnap struct {
	epoch       uint64
	state       entryState
	sent        int64
	fetched     int
	exitCount   int64
	exitDiscard int64
	// Checkpoint progress: the quiesce wait advances exitDelivered (not
	// exitCount while discards drain), a checkpoint commit advances
	// blockBase, and a stage drain shrinks staged.
	delivered int64
	base      int64
	staged    int
}

func (p *Pair) snapshot() wdSnap {
	return wdSnap{p.blockEpoch, p.state, p.sent, p.fetched, p.exitCount, p.exitDiscard,
		p.exitDelivered, p.blockBase, len(p.stage)}
}

// armWatchdog starts the progress-based stall detector for the current
// block attempt. It covers every phase — reconfiguration, streaming and
// drain — by re-arming itself as long as the fingerprint keeps changing; a
// full DrainTimeout window with zero progress is a stall. Timers are bound
// to the block epoch, so a timer armed for block N can never fire a
// spurious stall after block N completed and block N+1 is in flight.
//
// The fingerprint the next check compares against is kept in wdSnap: every
// arm bumps or follows an epoch bump, so at most one check per epoch is
// pending and a check whose epoch is current owns wdSnap.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) armWatchdog() {
	if p.cfg.DrainTimeout == 0 {
		return
	}
	p.wdSnap = p.snapshot()
	p.k.ScheduleArg(p.cfg.DrainTimeout, p.on.watchdog, p.blockEpoch)
}

//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) watchdogCheck(epoch uint64) {
	if p.blockEpoch != epoch || p.state == stIdle || p.state == stFlushing {
		return // block completed, or a flush is already under way
	}
	cur := p.snapshot()
	busPhase := p.state == stReconfig || p.state == stCheckpoint
	if cur != p.wdSnap || (busPhase && p.bus.BusyUntil() > p.k.Now()) {
		// Progress since the last check (an occupied configuration bus
		// counts: Rs — or a checkpoint snapshot — may legitimately exceed
		// the window): re-arm.
		p.wdSnap = cur
		p.k.ScheduleArg(p.cfg.DrainTimeout, p.on.watchdog, epoch)
		return
	}
	p.stallDetected()
}

// stallDetected handles a watchdog expiry: account the fault, notify, and —
// when recovery is enabled — start the flush.
func (p *Pair) stallDetected() {
	stream := p.active
	p.Stalls++
	p.streams[stream].StallCount++
	if p.cfg.OnStall != nil {
		p.cfg.OnStall(stream)
	}
	if p.stallObs != nil {
		p.stallObs(stream)
	}
	if p.failed {
		return // a stall observer triggered failover: the pair is retired
	}
	if !p.cfg.Recovery.Enabled {
		return // detect-only (historical behaviour): the pair stays wedged
	}
	p.beginFlush()
}

// beginFlush aborts the in-flight block: freeze the entry and exit state
// machines (the epoch bump turns their in-flight completions into no-ops),
// then wait out the settle delay so every word and credit still travelling
// the interconnect has landed before the chain is cleared.
func (p *Pair) beginFlush() {
	p.state = stFlushing
	p.blockEpoch++
	p.dmaBusy = false
	p.holding = false
	p.exitBusy = false
	p.exitHolding = false
	p.phaseStart = p.k.Now()
	delay := p.cfg.Recovery.FlushDelay
	if delay == 0 {
		delay = p.cfg.DrainTimeout
	}
	p.k.ScheduleArg(delay, p.on.flushDone, p.blockEpoch)
}

// flushDone ends the flush settle delay begun at the given epoch.
func (p *Pair) flushDone(epoch uint64) {
	if p.blockEpoch != epoch || p.state != stFlushing {
		return
	}
	p.completeFlush()
}

// completeFlush clears the chain — tile NI queues, in-process samples,
// pending outputs, the exit NI — and resets every link's credit state, then
// decides between retry and quarantine.
func (p *Pair) completeFlush() {
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
	p.recordActivity(ActFlush)
	s := p.streams[p.active]
	if s.Probation {
		// The canary block stalled: no retry budget on probation — the
		// transient-fault hypothesis is refuted, back to quarantine.
		p.quarantine()
		return
	}
	if p.blockRetries >= p.cfg.Recovery.RetryLimit {
		p.quarantine()
		return
	}
	p.blockRetries++
	p.Retries++
	s.RetryCount++
	p.retryBlock()
}

// retryBlock re-issues the aborted block: reload the engines' snapshot at
// the replay window's start — block start, or the last committed checkpoint
// — over the configuration bus (abort-and-reconfigure, charged like a
// context switch), then replay the locally buffered input words. Output
// words that were already committed to the output C-FIFO before the abort
// are regenerated by the replay and discarded at the exit gateway, so the
// consumer sees each block position once; value-exact staged words were
// never committed, so they are rolled back and regenerated for real.
func (p *Pair) retryBlock() {
	s := p.streams[p.active]
	if n := int64(len(p.stage)); n > 0 {
		p.exitCount -= n
		p.stage = p.stage[:0]
	}
	p.state = stReconfig
	var cost sim.Time
	switch p.cfg.Mode {
	case ReconfigFixed:
		cost = s.Reconfig
	case ReconfigPerWord:
		words := 0
		for _, e := range s.Engines {
			words += e.StateWords()
		}
		cost = p.cfg.BusBase + sim.Time(words)*p.cfg.BusPerWord
	}
	p.ReconfigCycles += uint64(cost)
	p.phaseStart = p.k.Now()
	p.bus.TransferCyclesArg(cost, p.on.retryDone, p.blockEpoch)
}

// retryDone completes retryBlock's abort-and-reconfigure: restore the
// snapshot and replay the block.
func (p *Pair) retryDone(epoch uint64) {
	if p.blockEpoch != epoch {
		return
	}
	s := p.streams[p.active]
	for t, e := range s.Engines {
		if err := e.LoadState(p.retryState[t]); err != nil {
			panic(fmt.Sprintf("gateway %s: retry restore %s tile %d: %v", p.cfg.Name, s.Name, t, err))
		}
	}
	p.recordActivity(ActReconfig)
	p.state = stStreaming
	p.sent = 0
	p.fetched = 0
	p.exitDelivered = p.blockBase / (s.Block / s.OutBlock)
	p.exitDiscard = p.exitCount - p.exitDelivered
	p.lastStreamStart = p.k.Now()
	p.armWatchdog()
	p.pump()
}

// quarantine removes the active stream from arbitration for good: its
// aborted block is discarded and its share of the chain released, so the
// surviving streams' interference term (Eq. 3/4) shrinks to the healthy
// set and their bounds hold again — graceful degradation.
func (p *Pair) quarantine() {
	s := p.streams[p.active]
	wasCanary := s.Probation
	s.Probation = false
	s.Quarantined = true
	s.QuarantinedAt = p.k.Now()
	s.queued = false
	p.Quarantines++
	p.blockBuf = p.blockBuf[:0]
	p.fetched = 0
	p.stage = p.stage[:0] // staged words belong to the discarded block
	p.blockBase = 0
	p.state = stIdle
	if p.cfg.Recovery.OnQuarantine != nil {
		p.cfg.Recovery.OnQuarantine(p.active)
	}
	if p.onQuarantine != nil {
		p.onQuarantine(p.active)
	}
	if wasCanary && p.onCanary != nil {
		p.onCanary(p.active, false)
	}
	p.step.Wake()
}

// recordActivity closes the current phase span (when enabled).
func (p *Pair) recordActivity(kind ActivityKind) {
	if !p.cfg.RecordActivity {
		return
	}
	p.Activities = append(p.Activities, Activity{
		Stream: p.active, Kind: kind, Start: p.phaseStart, End: p.k.Now(),
	})
	p.phaseStart = p.k.Now()
}

// exitRun is the exit gateway's step function: one sample per δ cycles from
// the NI to the output C-FIFO.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) exitRun() {
	if p.exitBusy || p.state == stFlushing || p.failed {
		return
	}
	if p.exitHolding {
		s := p.streams[p.active]
		if !s.Out.TryWrite(p.exitWord) {
			p.k.Schedule(2, p.on.exitWake)
			return
		}
		p.exitHolding = false
		p.afterExitWord(true)
		return
	}
	w, ok := p.exitNI.TryPop()
	if !ok {
		return
	}
	p.exitBusy = true
	p.exitWord = w
	p.k.ScheduleArg(p.cfg.ExitCost, p.on.exitDone, p.blockEpoch)
}

// exitDone completes the exit DMA's service of exitWord: discard a replayed
// word, stage it (value-exact), or commit it to the output C-FIFO.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) exitDone(epoch uint64) {
	if p.blockEpoch != epoch {
		return // block aborted while this word was in the exit DMA
	}
	p.exitBusy = false
	if p.exitDiscard > 0 {
		// Replayed word whose original was already committed to the
		// output C-FIFO before the abort: swallow it so the consumer sees
		// each block position exactly once.
		p.exitDiscard--
		p.afterExitWord(false)
		return
	}
	s := p.streams[p.active]
	if p.cfg.Recovery.ValueExact {
		// Hold the word in the staging buffer; it reaches the output
		// C-FIFO only when the block completes or a checkpoint commits
		// it, so an abort can roll it back instead of leaking a partial
		// first attempt downstream.
		//accellint:alloc stage grows to the largest sub-block once, then is reused
		p.stage = append(p.stage, p.exitWord)
		p.afterExitWord(true)
		return
	}
	if !s.Out.TryWrite(p.exitWord) {
		// The space check reserved room, but the ring injection buffer
		// can still be momentarily busy.
		p.exitHolding = true
		p.k.Schedule(2, p.on.exitWake)
		return
	}
	p.afterExitWord(true)
}

// afterExitWord closes one exit-DMA service: committed words count toward
// the stream's output, discarded replays only toward block completion. The
// block completes when a full OutBlock has been committed AND no replay
// discards remain — on a retry the discards come first, so checking both
// paths keeps the completion edge firing exactly once per attempt.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) afterExitWord(committed bool) {
	s := p.streams[p.active]
	p.exitDelivered++
	if committed {
		if p.cfg.Recovery.ValueExact {
			// Staged, not yet in the output C-FIFO: count it toward block
			// completion now, account SamplesOut/OutTimes at the actual
			// commit (drainStage).
			p.exitCount++
		} else {
			s.SamplesOut++
			if p.cfg.RecordOutputTimes {
				//accellint:alloc per-sample timestamps are a measurement option, off in campaigns
				s.OutTimes = append(s.OutTimes, p.k.Now())
			}
			p.exitCount++
		}
	}
	if p.exitCount >= s.OutBlock && p.exitDiscard == 0 {
		// Last sample of the block passed through: commit any staged words,
		// then notify the entry gateway over the ring.
		p.drainStage(thenIdle)
	} else if p.checkpointDue(s) {
		p.beginCheckpoint()
	}
	if p.exitNI.Len() > 0 {
		// The next word is already waiting; an empty NI wakes the exit
		// DMA itself when one lands.
		p.exitStep.Wake()
	}
}

// checkpointDue reports whether the active block just quiesced at an
// interior checkpoint boundary: the entry gateway stopped at ckptNext and
// the exit side has now delivered every output of the samples issued — the
// point where a SaveState snapshot is consistent with exactly ckptNext
// processed inputs.
func (p *Pair) checkpointDue(s *Stream) bool {
	if p.ckptEvery <= 0 || p.state != stStreaming || p.ckptNext >= s.Block {
		return false
	}
	if p.blockBase+p.sent != p.ckptNext {
		return false
	}
	return p.exitDelivered == p.ckptNext/(s.Block/s.OutBlock)
}

// beginCheckpoint commits the quiesced sub-block: drain the stage (its
// words are final — a later retry never resumes before this boundary),
// snapshot the engines' state over the configuration bus, and advance the
// replay window. Bound to the block epoch, so a stall racing the snapshot
// aborts it and the retry falls back to the previous checkpoint.
func (p *Pair) beginCheckpoint() {
	p.state = stCheckpoint
	p.recordActivity(ActStream) // close the streaming span
	p.drainStage(thenCheckpoint)
}

// checkpointDone completes the checkpoint snapshot begun at the given epoch.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) checkpointDone(epoch uint64) {
	if p.failed || p.blockEpoch != epoch {
		return
	}
	s := p.streams[p.active]
	p.retryState = saveEngines(p.retryState, s.Engines)
	p.blockBase = p.ckptNext
	p.blockBuf = p.blockBuf[:0]
	p.fetched = 0
	p.sent = 0
	p.ckptNext = p.nextCkptBoundary(s)
	p.Checkpoints++
	p.recordActivity(ActCheckpoint)
	p.state = stStreaming
	p.pump()
}

// stageThen names what follows a stage drain.
type stageThen int

const (
	// thenIdle sends the block's pipeline-idle notification.
	thenIdle stageThen = iota
	// thenCheckpoint snapshots the engines over the configuration bus.
	thenCheckpoint
)

// drainStage commits the staged output words of the active block to its
// output C-FIFO, then continues with then (immediately when nothing is
// staged). The space check reserved the room at block start, so only
// transient ring-injection backpressure can delay a write. Bound to the
// block epoch: an abort discards the remaining stage instead (retryBlock and
// quarantine roll the watermark back).
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) drainStage(then stageThen) {
	p.stageThen = then
	p.stageStep(p.blockEpoch)
}

// stageStep writes staged words until the output C-FIFO refuses one, then
// retries two cycles later; once the stage is empty it runs stageThen.
// Committed words leave the stage in place, so its backing array is kept
// for the next block.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) stageStep(epoch uint64) {
	if p.blockEpoch != epoch || p.failed {
		return
	}
	s := p.streams[p.active]
	n := 0
	for n < len(p.stage) && s.Out.TryWrite(p.stage[n]) {
		n++
	}
	for range p.stage[:n] {
		s.SamplesOut++
		if p.cfg.RecordOutputTimes {
			//accellint:alloc per-sample timestamps are a measurement option, off in campaigns
			s.OutTimes = append(s.OutTimes, p.k.Now())
		}
	}
	p.stage = p.stage[:copy(p.stage, p.stage[n:])]
	if len(p.stage) > 0 {
		p.k.ScheduleArg(2, p.on.stageStep, epoch)
		return
	}
	switch p.stageThen {
	case thenIdle:
		p.sendIdle(p.active)
	case thenCheckpoint:
		cost := p.cfg.Recovery.CheckpointCost
		p.CheckpointCycles += uint64(cost)
		p.bus.TransferCyclesArg(cost, p.on.checkpointDone, p.blockEpoch)
	}
}

// sendIdle originates one pipeline-idle notification; the DropIdle fault
// hook is consulted exactly once per block completion, here — ring-busy
// resends in pushIdle do not re-consult it.
func (p *Pair) sendIdle(streamIdx int) {
	if p.cfg.DropIdle != nil && p.cfg.DropIdle(streamIdx, p.streams[streamIdx].Blocks) {
		p.IdleDropped++
		return
	}
	p.idleStream = streamIdx
	p.pushIdle(p.blockEpoch)
}

// pushIdle injects the idle notification for idleStream, retrying until it
// lands; bound to the block epoch so a flush cancels pending resends.
//
//accellint:noalloc guard=TestDataPathZeroAllocRecovery
func (p *Pair) pushIdle(epoch uint64) {
	if p.blockEpoch != epoch {
		return
	}
	if !p.net.Credit.Node(p.cfg.ExitNode).TrySend(p.cfg.EntryNode, p.cfg.IdlePort, sim.Word(p.idleStream)) {
		p.k.ScheduleArg(2, p.on.pushIdle, epoch)
	}
}

// onPipelineIdle completes the active block.
func (p *Pair) onPipelineIdle(streamIdx int) {
	if p.state != stDraining || streamIdx != p.active {
		if p.cfg.Recovery.Enabled || p.cfg.DropIdle != nil {
			// With faults in play a notification can legitimately race a
			// flush and arrive after its block was aborted: tolerate it.
			p.LateIdles++
			return
		}
		panic(fmt.Sprintf("gateway %s: spurious idle notification (state=%d idx=%d active=%d)",
			p.cfg.Name, p.state, streamIdx, p.active))
	}
	p.recordActivity(ActDrain)
	s := p.streams[p.active]
	s.Blocks++
	if s.queued {
		turn := p.k.Now() - s.queuedAt
		if turn > s.MaxTurnaround {
			s.MaxTurnaround = turn
		}
		s.queued = false
	}
	if p.cfg.RecordTurnarounds {
		s.Turnarounds = append(s.Turnarounds, BlockRecord{
			Queued: p.blockQueued, Started: p.blockStarted, Done: p.k.Now(), Retries: p.blockRetries,
			Replayed: p.blockIssued - p.blockFresh,
		})
	}
	p.blockEpoch++ // completed: cancel this block's pending timers/events
	p.state = stIdle
	if s.Probation {
		// Canary block completed cleanly: the stream is a full member again.
		s.Probation = false
		if p.onCanary != nil {
			p.onCanary(p.active, true)
		}
	}
	p.step.Wake()
}

// PendingWait returns how long stream s has had a complete, eligible block
// waiting without service (0 when nothing is pending) — the starvation
// indicator for arbitration experiments: completed-block turnaround alone
// cannot see a block that is never served.
func (p *Pair) PendingWait(s int) sim.Time {
	st := p.streams[s]
	if st.Quarantined || st.Suspended || !st.queued || (p.state != stIdle && s == p.active) {
		return 0
	}
	return p.k.Now() - st.queuedAt
}

// Busy returns accounting figures: total observed cycles, cycles spent
// reconfiguring, and cycles the DMA spent streaming.
func (p *Pair) Busy() (total, reconfig, streaming uint64) {
	return uint64(p.k.Now() - p.startTime), p.ReconfigCycles, p.StreamingCycles
}

// Tiles returns the managed accelerator tiles.
func (p *Pair) Tiles() []*accel.Tile { return p.tiles }

// ---------------------------------------------------------------------------
// Online admission control: pause/resume, slot reprogramming, live attach.
//
// The paper sizes ηs once, offline; a service under live traffic must change
// the stream set while blocks are flowing. The contract is a staged mode
// transition: drain to a block boundary (RequestPause), reprogram the stream
// slots over the configuration bus (ApplySlots, optionally AddStreamLive for
// a brand-new slot), resume (Resume). Between pause and resume the pipeline
// is provably idle — the same invariant the per-block engine swap relies
// on — so no in-flight block can observe a half-applied configuration.
// ---------------------------------------------------------------------------

// RequestPause asks the entry gateway to stop arbitration at the next block
// boundary and call fn once drained (immediately when already idle). Only
// one pause may be pending or active at a time. While a pause is pending
// the in-flight block — including any recovery retries it needs — runs to
// completion; sources keep filling the input C-FIFOs.
func (p *Pair) RequestPause(fn func()) error {
	if fn == nil {
		return fmt.Errorf("gateway %s: nil pause callback", p.cfg.Name)
	}
	if p.paused || p.pauseCb != nil {
		return fmt.Errorf("gateway %s: pause already pending or active", p.cfg.Name)
	}
	p.pauseCb = fn
	p.step.Wake()
	return nil
}

// Resume re-arms arbitration after a mode transition.
func (p *Pair) Resume() {
	p.paused = false
	p.step.Wake()
}

// Paused reports whether the pair is drained and holding arbitration.
func (p *Pair) Paused() bool { return p.paused }

// SlotUpdate reprograms one stream slot during a paused mode transition.
// Zero-valued fields leave the corresponding setting untouched.
type SlotUpdate struct {
	Stream int
	// SetBlock/SetOutBlock, when positive, reprogram ηs and the per-block
	// output sample count.
	SetBlock, SetOutBlock int64
	// Suspend removes the slot from arbitration; Activate returns it.
	Suspend, Activate bool
	// Unquarantine clears a fault quarantine; with Probation the stream's
	// next block is a canary (see Stream.Probation).
	Unquarantine bool
	Probation    bool
}

// ApplySlots reprograms stream slots over the configuration bus. The pair
// must be paused (RequestPause completed): the transition is itself a
// bus transaction of perSlotCost cycles per touched slot — the cost is
// accounted in SlotCycles and done runs when the transfer completes. The
// updates are validated up front so a half-applied transition is
// impossible.
func (p *Pair) ApplySlots(updates []SlotUpdate, perSlotCost sim.Time, done func()) error {
	if !p.paused {
		return fmt.Errorf("gateway %s: ApplySlots requires a paused pair", p.cfg.Name)
	}
	for _, u := range updates {
		if u.Stream < 0 || u.Stream >= len(p.streams) {
			return fmt.Errorf("gateway %s: slot %d out of range", p.cfg.Name, u.Stream)
		}
		s := p.streams[u.Stream]
		blk, out := s.Block, s.OutBlock
		if u.SetBlock > 0 {
			blk = u.SetBlock
		}
		if u.SetOutBlock > 0 {
			out = u.SetOutBlock
		}
		if blk <= 0 || out <= 0 {
			return fmt.Errorf("gateway %s: slot %q would get block %d/out %d", p.cfg.Name, s.Name, blk, out)
		}
		if s.In.Capacity() < int(blk) {
			return fmt.Errorf("gateway %s: slot %q input FIFO %d < block %d", p.cfg.Name, s.Name, s.In.Capacity(), blk)
		}
		if s.Out.Capacity() < int(out) {
			return fmt.Errorf("gateway %s: slot %q output FIFO %d < out-block %d", p.cfg.Name, s.Name, s.Out.Capacity(), out)
		}
	}
	cost := perSlotCost * sim.Time(len(updates))
	p.SlotCycles += uint64(cost)
	p.bus.TransferCycles(cost, func() {
		if p.failed {
			return // the pair froze for failover while the bus was busy
		}
		for _, u := range updates {
			s := p.streams[u.Stream]
			if u.SetBlock > 0 {
				s.Block = u.SetBlock
			}
			if u.SetOutBlock > 0 {
				s.OutBlock = u.SetOutBlock
			}
			if u.Suspend {
				s.Suspended = true
				s.queued = false
			}
			if u.Activate {
				s.Suspended = false
			}
			if u.Unquarantine {
				s.Quarantined = false
			}
			if u.Probation {
				s.Probation = true
			}
		}
		p.recheck = true
		if done != nil {
			done()
		}
	})
	return nil
}

// AddStreamLive registers a stream slot on a running, paused pair. The
// drain guarantees arbitration state is quiescent, so the slot table can
// grow without racing an in-flight block. Start the slot Suspended and
// activate it in the same ApplySlots transaction that sizes the survivor
// slots, so the new stream becomes eligible atomically with the new ηs.
func (p *Pair) AddStreamLive(s *Stream) (int, error) {
	if !p.paused {
		return 0, fmt.Errorf("gateway %s: AddStreamLive requires a paused pair", p.cfg.Name)
	}
	if err := p.AddStream(s); err != nil {
		return 0, err
	}
	return len(p.streams) - 1, nil
}

// SetCanaryHook installs fn to observe canary (probation) outcomes: ok is
// true when the canary block completed cleanly, false when it stalled and
// the stream went back to quarantine.
func (p *Pair) SetCanaryHook(fn func(stream int, ok bool)) { p.onCanary = fn }

// SetQuarantineObserver installs fn to observe quarantine events in
// addition to Config.Recovery.OnQuarantine (which belongs to the platform
// builder, not to the admission controller).
func (p *Pair) SetQuarantineObserver(fn func(stream int)) { p.onQuarantine = fn }

// StreamSnapshot is the externally consumable per-stream counter set: one
// struct instead of a handful of individually poked fields, shared by the
// admission controller, the platform reports and the fault campaign.
type StreamSnapshot struct {
	Name                          string
	Block, OutBlock               int64
	Blocks, SamplesIn, SamplesOut uint64
	Stalls, Retries               uint64
	Quarantined                   bool
	QuarantinedAt                 sim.Time
	Suspended                     bool
	Probation                     bool
	MaxTurnaround                 sim.Time
}

// Snapshot returns the per-stream recovery/progress counters.
//
//accellint:deepcopy
func (p *Pair) Snapshot() []StreamSnapshot {
	out := make([]StreamSnapshot, len(p.streams))
	for i, s := range p.streams {
		out[i] = StreamSnapshot{
			Name:          s.Name,
			Block:         s.Block,
			OutBlock:      s.OutBlock,
			Blocks:        s.Blocks,
			SamplesIn:     s.SamplesIn,
			SamplesOut:    s.SamplesOut,
			Stalls:        s.StallCount,
			Retries:       s.RetryCount,
			Quarantined:   s.Quarantined,
			QuarantinedAt: s.QuarantinedAt,
			Suspended:     s.Suspended,
			Probation:     s.Probation,
			MaxTurnaround: s.MaxTurnaround,
		}
	}
	return out
}
