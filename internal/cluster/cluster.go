// Package cluster is the fleet-level control plane: it owns N heterogeneous
// accelerator chains (mpsoc.MultiSystem), places arriving streams via
// per-chain Algorithm 1 admission (internal/admission), and reacts to chain
// failure with an explicit degradation ladder:
//
//	rung 1 — failover: a wedged-chain verdict migrates every stream of the
//	         sick chain to a standby pair (mpsoc.FailoverController) in one
//	         bounded freeze→settle→migrate→resume action;
//	rung 2 — evacuate: with no standby left, each stream is re-placed
//	         individually on a surviving chain, reusing the export/import
//	         machinery as a migration primitive: the target re-solves
//	         admission (AdmitMigrated), the checkpointed replay residue is
//	         ≤ K words, and the measured cost of every step is recorded
//	         against a composed bound (settle + Σ transition envelopes +
//	         charged backoff delays);
//	rung 3 — shed: streams no surviving chain can admit are parked by a
//	         deterministic priority/utilisation policy — sources stopped,
//	         exported state retained — and readmitted when a chain heals.
//
// Every registry stream is in one lifecycle phase (lifecycle.go), changed
// only along named transitions. Evacuation and rebalancing place an
// exported stream through one loop (placeMigrant). Every operation that
// can transiently fail retries under one bounded deterministic backoff
// schedule (fault.Backoff) on the simulation clock, so a chaos campaign is
// byte-identical across runs. Every admission call is an attempt record
// pooled on the controller; a pending request's verdict continues the
// stream's phase.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"accelshare/internal/accel"
	"accelshare/internal/admission"
	"accelshare/internal/conformance"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// ChainSpec describes one chain of the fleet.
type ChainSpec struct {
	Name string
	// AccelCost is ρA of the chain's single shared accelerator tile —
	// heterogeneous fleets mix costs, and Algorithm 1 re-solves per chain.
	AccelCost sim.Time
	// ReserveSlots pre-provisions ring attachment points for arrivals.
	ReserveSlots int
	// Spare builds the chain empty (mpsoc.ChainSpec.Standby), held in
	// reserve as a failover target or for promotion on heal.
	Spare bool
	// OnlineAt defers a spare's availability: the chain "heals" into the
	// fleet at this cycle (0 = available from the start). Ignored for
	// serving chains.
	OnlineAt sim.Time
	// Faults arms a deterministic fault plan against this chain — the chaos
	// campaign's chain kills are permanent wedge faults scheduled here.
	Faults *fault.Plan
}

// Config parameterises a cluster Controller.
type Config struct {
	EntryCost, ExitCost sim.Time
	HopLatency          sim.Time
	// Reconfig is Rs for every stream (one fleet-wide reconfiguration cost
	// keeps the campaign surface small; per-stream costs would thread
	// through StreamRequest the same way).
	Reconfig     sim.Time
	DrainTimeout sim.Time
	Recovery     gateway.Recovery
	// PerSlotCost must be mpsoc.SlotCost, the configuration-bus cost per
	// reprogrammed slot that every chain's controllers charge; New refuses
	// any other value.
	PerSlotCost sim.Time
	// Doctor parameterises the per-chain wedged-chain diagnosis.
	Doctor fault.DoctorConfig
	// Retry is the bounded deterministic backoff schedule shared by every
	// control-plane retry loop.
	Retry fault.Backoff
	// ResidentPeriod seeds every serving chain with one resident stream at
	// this sample period; residents anchor the chain's stall feed and are
	// evacuated like any other stream (at ResidentPriority) when it dies.
	ResidentPeriod   int64
	ResidentPriority int
	// InCapacity/OutCapacity size every stream's C-FIFOs.
	InCapacity, OutCapacity int
	// CollectOutputs stores every output word (functional contiguity checks
	// in campaigns; off for long soaks where memory matters).
	CollectOutputs bool
	// Solver is the per-chain Algorithm 1 decision procedure handed to
	// every admission controller (nil = the admission default,
	// solve.Default: the warm-start layer over the exact least fixed
	// point). One shared instance serves every chain: solvers are
	// stateless and never mutate the Problem.
	Solver solve.Solver
	// Rebalance arms the periodic utilisation-spread rebalancing loop
	// (see RebalanceConfig; zero value = disabled).
	Rebalance RebalanceConfig
	// ReclaimSlots returns a departed stream's ring attachment points to
	// its home chain's reserve pool (mpsoc.ReclaimStream), so a sustained
	// serving campaign admits an unbounded sequence of lifetimes through a
	// bounded slot table. Off by default: short campaigns don't need it and
	// the flag keeps their transcripts byte-stable.
	ReclaimSlots bool
	Chains       []ChainSpec
}

// StreamRequest asks the fleet to admit a new stream.
type StreamRequest struct {
	Name string
	// Period is the source sample period in cycles: the rate constraint is
	// μs = 1/Period samples per cycle.
	Period int64
	// Priority orders evacuation and shedding: higher survives longer.
	Priority int
}

// EventKind tags one fleet event-log entry.
type EventKind string

// Fleet event kinds.
const (
	EvArrive    EventKind = "arrive"
	EvReject    EventKind = "reject"
	EvDepart    EventKind = "depart"
	EvRetry     EventKind = "retry"
	EvVerdict   EventKind = "verdict"
	EvFailover  EventKind = "failover"
	EvEvacuate  EventKind = "evacuate"
	EvMigrated  EventKind = "migrated"
	EvEvacuated EventKind = "evacuated"
	EvShed      EventKind = "shed"
	EvParked    EventKind = "parked"
	EvHeal      EventKind = "heal"
	EvReadmit   EventKind = "readmit"
	EvLost      EventKind = "lost"
	// EvRebalance marks a rebalance tick's plan (or an aborted move);
	// EvRebalanced marks one completed hot migration.
	EvRebalance  EventKind = "rebalance"
	EvRebalanced EventKind = "rebalanced"
)

// Event is one fleet event-log entry (append-only, deterministic order).
type Event struct {
	At     sim.Time
	Kind   EventKind
	Chain  string
	Stream string
	Detail string
}

// FormatEvent renders one entry deterministically.
func FormatEvent(e Event) string {
	site := e.Chain
	if e.Stream != "" {
		if site != "" {
			site += "/"
		}
		site += e.Stream
	}
	if e.Detail == "" {
		return fmt.Sprintf("[%7d] %-9s %s", e.At, e.Kind, site)
	}
	return fmt.Sprintf("[%7d] %-9s %-12s %s", e.At, e.Kind, site, e.Detail)
}

// LadderStep records one degradation-ladder action for one stream, with the
// measured cost against its (composed) bound. For failover steps the bound
// is the failover envelope max τ̂s(K) + slots·bus; for evacuate/shed steps it
// is the composed evacuation bound accumulated so far — settle + the sum of
// the accepted targets' transition envelopes + every charged backoff delay
// (see DESIGN § Fleet robustness); for readmit steps it is the admitting
// transition's own envelope.
// Rebalance moves record rung "rebalance" with the composed move bound:
// the source's removal envelope + settle + the target's admission envelope
// + charged backoff delays.
type LadderStep struct {
	At     sim.Time
	Stream string
	// Rung is "failover", "evacuate", "shed", "readmit" or "rebalance".
	Rung     string
	From, To string
	Measured uint64
	Bound    uint64
	// Replay is the stream's migrated replay residue in words (≤ K on a
	// checkpointing fleet).
	Replay int
}

type chainState int

const (
	chainServing chainState = iota
	chainSpare
	chainOffline
	chainFailed
)

func (s chainState) String() string { return [...]string{"serving", "spare", "offline", "failed"}[s] }

type chainInfo struct {
	name  string
	pos   int // index into Controller.chains / Config.Chains
	idx   int // index into MultiSystem.Chains
	state chainState
	ctrl  *admission.Controller
}

type streamInfo struct {
	name     string
	period   int64
	priority int
	// chain owns the stream while it runs on one (live, departing, moving);
	// -1 in every other phase.
	chain  int
	st     *mpsoc.Stream
	export gateway.StreamExport // the exported state of a migrant or parked stream
	m      *migrant             // a migrating stream's path

	// blocks, samples, overflow and contiguous are what StreamStatuses
	// reports for a reclaimed stream once it has retired: retired folds
	// them in and drops st and export.
	blocks, samples, overflow uint64

	// pendingOn is the chain the stream's pending transition waits on, -1
	// for none; moves counts completed rebalance moves. deferDepart is a
	// departure that arrived while the stream could not leave at once, issued
	// when it lands or parks. (Packed, a streamInfo stays at 176 bytes, a
	// malloc size class; a fleet allocates one per submitted stream.)
	pendingOn, moves                  int
	phase                             phase
	resident, contiguous, deferDepart bool
}

// evacuation tracks one rung-2/3 drain of a failed chain. Its evacuees
// share one composed bound.
type evacuation struct {
	composed
	queue    []*migrant
	migrated int
	shed     int
}

// Controller is the fleet control plane.
type Controller struct {
	cfg Config
	ms  *mpsoc.MultiSystem
	k   *sim.Kernel

	chains  []*chainInfo
	streams map[string]*streamInfo
	order   []*streamInfo // registry insertion order: deterministic iteration

	events []Event
	ladder []LadderStep

	// Rebalancer state: per-tick telemetry history, the pending move queue,
	// the one-move-at-a-time gate, and the hysteresis marks
	// (RebalanceConfig.HighWater and half of it).
	fleet               []FleetStats
	moveQueue           []*moveOp
	moving              bool
	highWater, lowWater core.Load

	// ranked is rankServing's result, reused from one placement to the
	// next.
	ranked []*chainInfo

	// attempts is the pool of recycled attempt records; refusal holds the
	// last synchronous refusal until offered hands it back.
	attempts *attempt
	refusal  admission.Verdict
}

// New builds the fleet platform and attaches the control plane. Serving
// chains are seeded with one resident stream each (block sizes solved by
// Algorithm 1); spare chains are built empty, coming online at OnlineAt.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Chains) == 0 {
		return nil, fmt.Errorf("cluster: no chains")
	}
	if !cfg.Recovery.Enabled {
		return nil, fmt.Errorf("cluster: recovery must be enabled (evacuation needs replay snapshots)")
	}
	if cfg.ResidentPeriod <= 0 {
		return nil, fmt.Errorf("cluster: resident period must be positive")
	}
	if cfg.PerSlotCost != mpsoc.SlotCost {
		return nil, fmt.Errorf("cluster: per-slot bus cost %d, the platform's is %d", cfg.PerSlotCost, mpsoc.SlotCost)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Rebalance.validate(); err != nil {
		return nil, err
	}
	serving := 0
	for _, cs := range cfg.Chains {
		if !cs.Spare {
			serving++
		}
	}
	if serving == 0 {
		return nil, fmt.Errorf("cluster: no serving chains")
	}

	c := &Controller{cfg: cfg, streams: map[string]*streamInfo{}}
	var mc mpsoc.MultiConfig
	mc.HopLatency = cfg.HopLatency
	for _, cs := range cfg.Chains {
		ms := mpsoc.ChainSpec{
			Name:              cs.Name,
			EntryCost:         cfg.EntryCost,
			ExitCost:          cfg.ExitCost,
			DrainTimeout:      cfg.DrainTimeout,
			Recovery:          cfg.Recovery,
			RecordTurnarounds: true,
			ReserveSlots:      cs.ReserveSlots,
			Faults:            cs.Faults,
			Accels:            []mpsoc.AccelSpec{{Name: cs.Name + ".acc", Cost: cs.AccelCost}},
		}
		if cs.Spare {
			ms.Standby = true
		} else {
			ms.Streams = []mpsoc.StreamSpec{c.streamSpec("r-"+cs.Name, cfg.ResidentPeriod)}
			if err := ms.SizeBlocks(); err != nil {
				return nil, fmt.Errorf("cluster: resident of %q: %w", cs.Name, err)
			}
		}
		mc.Chains = append(mc.Chains, ms)
	}
	plat, err := mpsoc.BuildMulti(mc)
	if err != nil {
		return nil, err
	}
	c.ms = plat
	c.k = plat.K
	plat.SetRetireObserver(c.retired)

	for pos, cs := range cfg.Chains {
		ci := &chainInfo{name: cs.Name, pos: pos, idx: pos}
		c.chains = append(c.chains, ci)
		if cs.Spare {
			if cs.OnlineAt > 0 {
				ci.state = chainOffline
				ci := ci
				c.k.ScheduleAt(cs.OnlineAt, func() { c.onHeal(ci) })
			} else {
				ci.state = chainSpare
			}
			continue
		}
		ci.state = chainServing
		ctrl, err := c.newCtrl(ci)
		if err != nil {
			return nil, fmt.Errorf("cluster: chain %q: %w", cs.Name, err)
		}
		ci.ctrl = ctrl
		if err := c.armDoctor(ci); err != nil {
			return nil, err
		}
		rname := "r-" + cs.Name
		si := &streamInfo{
			name: rname, period: cfg.ResidentPeriod, priority: cfg.ResidentPriority,
			resident: true, phase: live, chain: pos, pendingOn: -1, st: plat.Chains[pos].Strs[0],
		}
		c.streams[rname] = si
		c.order = append(c.order, si)
	}
	c.scheduleRebalance()
	return c, nil
}

// System exposes the underlying platform (conformance, reports).
func (c *Controller) System() *mpsoc.MultiSystem { return c.ms }

// Events returns the fleet event log (append-only; do not mutate).
func (c *Controller) Events() []Event { return c.events }

// LadderSteps returns every recorded degradation-ladder step in order.
func (c *Controller) LadderSteps() []LadderStep { return c.ladder }

// Run starts every gateway pair and advances the simulation.
func (c *Controller) Run(horizon sim.Time) { c.ms.Run(horizon) }

func (c *Controller) event(kind EventKind, chain, stream, detail string) {
	c.events = append(c.events, Event{At: c.k.Now(), Kind: kind, Chain: chain, Stream: stream, Detail: detail})
}

// newCtrl builds chain ci's admission controller over the chain's live
// streams.
func (c *Controller) newCtrl(ci *chainInfo) (*admission.Controller, error) {
	return admission.New(c.ms, admission.Config{Chain: ci.idx, Solver: c.cfg.Solver})
}

func (c *Controller) armDoctor(ci *chainInfo) error {
	d, err := fault.NewDoctor(c.k, c.cfg.Doctor, func(v fault.Verdict) { c.onVerdict(ci, v) })
	if err != nil {
		return err
	}
	c.ms.Chains[ci.idx].Pair.SetStallObserver(d.NoteStall)
	return nil
}

// rankServing orders the live chains by utilisation (ascending, exact),
// name as the tie-break: the placement policy and the shed policy's
// "least-loaded first" are the same deterministic ranking. Each chain's
// admission controller keeps its utilisation per model generation, so a
// ranking recomputes only what a commit moved. The result is valid until
// the next call; callers iterate it without ranking again.
//
//accellint:noalloc guard=TestRankServingZeroAlloc
func (c *Controller) rankServing() []*chainInfo {
	c.ranked = c.ranked[:0]
	for _, ci := range c.chains {
		if ci.state == chainServing && ci.ctrl != nil {
			//accellint:alloc grows to the chain count once
			c.ranked = append(c.ranked, ci)
		}
	}
	slices.SortStableFunc(c.ranked, byLoad)
	return c.ranked
}

// byLoad orders serving chains by utilisation, then by name.
func byLoad(a, b *chainInfo) int {
	if by := a.ctrl.Load().Cmp(b.ctrl.Load()); by != 0 {
		return by
	}
	return strings.Compare(a.name, b.name)
}

// streamSpec is the spec of a fleet stream making one sample every period
// cycles: its rate μs = 1/period.
func (c *Controller) streamSpec(name string, period int64) mpsoc.StreamSpec {
	return mpsoc.StreamSpec{
		Name:           name,
		Decimation:     1,
		Reconfig:       c.cfg.Reconfig,
		InCapacity:     c.cfg.InCapacity,
		OutCapacity:    c.cfg.OutCapacity,
		Engines:        []accel.Engine{&accel.Gain{}},
		SourcePeriod:   sim.Time(period),
		CollectOutputs: c.cfg.CollectOutputs,
	}
}

// Submit asks the fleet to admit a new stream; placement tries every
// serving chain in utilisation order, with bounded backoff while targets
// are busy. The final outcome lands in the event log.
func (c *Controller) Submit(req StreamRequest) {
	if req.Name == "" || req.Period <= 0 {
		c.event(EvReject, "", req.Name, "bad request")
		return
	}
	if c.streams[req.Name] != nil {
		c.event(EvReject, "", req.Name, "name already in use")
		return
	}
	si := &streamInfo{name: req.Name, period: req.Period, priority: req.Priority, chain: -1, pendingOn: -1}
	c.streams[req.Name] = si
	c.order = append(c.order, si)
	c.place(si, 0)
}

func (c *Controller) place(si *streamInfo, attempt int) {
	busy := false
	// The last chain's refusal becomes the rejection detail, formatted only
	// if the stream is rejected.
	var last admission.Verdict
	// One request serves every chain: a rejection attaches nothing, and the
	// loop ends at the first chain that takes it.
	req := admission.AddRequest{Spec: c.streamSpec(si.name, si.period)}
	for _, tc := range c.rankServing() {
		a := c.newAttempt(si, tc, attempt)
		tc.ctrl.AddStream(req, a.done)
		v, pending := c.offered(a, offerAdmit)
		if pending {
			return
		}
		busy = busy || v.Reason == admission.ReasonBusy
		last = v
	}
	detail := "no serving chain"
	if busy {
		if _, ok := c.retry(si, attempt, fmt.Sprintf("placement attempt %d", attempt+1), func(next int) { c.place(si, next) }); ok {
			return
		}
		detail = "retry budget exhausted (targets busy)"
	} else if last.Reason != "" {
		detail = fmt.Sprintf("%s: %s", last.Reason, last.Detail)
	}
	si.step(reject, -1)
	c.event(EvReject, "", si.name, detail)
}

// placed completes an arrival whose staged transition on tc was pending.
func (c *Controller) placed(si *streamInfo, tc *chainInfo, attempt int, v admission.Verdict) {
	if !v.Accepted {
		// The stream set changed during the drain (superseded): re-place
		// from scratch under backoff.
		si.step(retract, -1)
		why := fmt.Sprintf("placement superseded on %s;", tc.name)
		if _, ok := c.retry(si, attempt, why, func(next int) { c.place(si, next) }); !ok {
			si.step(reject, -1)
			c.event(EvReject, "", si.name, "retry budget exhausted (superseded)")
		}
		return
	}
	si.step(arrive, tc.pos)
	si.st = c.findStream(tc, si.name)
	c.event(EvArrive, tc.name, si.name, fmt.Sprintf("eta=%d wait=%d bound=%d",
		lastBlock(v), v.PauseWait, v.BoundCycles))
	c.departIfDeferred(si)
}

// findStream resolves the mpsoc stream named name on chain tc, scanning
// backwards so a freshly attached stream wins over a zombie slot.
func (c *Controller) findStream(tc *chainInfo, name string) *mpsoc.Stream {
	strs := c.ms.Chains[tc.idx].Strs
	for i := len(strs) - 1; i >= 0; i-- {
		if strs[i].GW.Name == name {
			return strs[i]
		}
	}
	return nil
}

func lastBlock(v admission.Verdict) int64 {
	if len(v.Blocks) == 0 {
		return 0
	}
	return v.Blocks[len(v.Blocks)-1].Block
}

// Depart retires a stream from the fleet.
func (c *Controller) Depart(name string) {
	si := c.streams[name]
	if si == nil || si.resident {
		c.event(EvReject, "", name, "cannot depart: unknown or resident stream")
		return
	}
	c.depart(si, 0)
}

func (c *Controller) depart(si *streamInfo, attempt int) {
	switch si.phase {
	case departed, rejected:
		return
	case parked:
		// A parked stream departs without a transition: nothing is running.
		si.step(departNow, -1)
		c.event(EvDepart, "", si.name, "departed while parked")
		return
	case live:
		ci := c.chains[si.chain]
		if ci.state != chainServing || ci.ctrl == nil {
			break
		}
		a := c.newAttempt(si, ci, attempt)
		ci.ctrl.RemoveStream(si.name, a.done)
		if v, pending := c.offered(a, offerRemoval); !pending {
			c.departRefused(si, ci, attempt, v)
			si.step(refusedRemoval, -1)
		}
		return
	}
	// Between chains, on a dead chain or with a transition pending: wait
	// for the stream to land or park.
	si.deferDepart = true
}

// departRefused retries a refused departure under backoff while the chain
// is busy or its model moved; otherwise the departure fails.
func (c *Controller) departRefused(si *streamInfo, ci *chainInfo, attempt int, v admission.Verdict) {
	if v.Reason == admission.ReasonBusy || v.Reason == admission.ReasonSuperseded {
		if _, ok := c.retry(si, attempt, fmt.Sprintf("departure attempt %d", attempt+1), func(next int) { c.depart(si, next) }); ok {
			return
		}
	}
	c.event(EvReject, ci.name, si.name, fmt.Sprintf("departure failed: %s: %s", v.Reason, v.Detail))
}

// departed completes a departure whose removal committed on ci.
func (c *Controller) departed(si *streamInfo, ci *chainInfo, v admission.Verdict) {
	si.step(remove, -1)
	c.event(EvDepart, ci.name, si.name, fmt.Sprintf("wait=%d bound=%d", v.PauseWait, v.BoundCycles))
	if c.cfg.ReclaimSlots {
		// Retire the parked slot for good: forget it on the admission
		// side first so a later failover Retarget never looks for a
		// name whose gateway slot is a Released tombstone.
		if _, ok := ci.ctrl.ForgetParked(si.name); ok {
			if err := c.ms.ReclaimStream(ci.idx, si.name); err != nil {
				c.event(EvLost, ci.name, si.name, fmt.Sprintf("slot reclaim failed: %v", err))
			}
		}
	}
}

// retired folds a reclaimed stream into its registry entry once its last
// output word has been read: the entry keeps the counters StreamStatuses
// reports and drops the stream and its export, so that nothing keeps the
// departed stream's C-FIFOs, block records and outputs reachable.
func (c *Controller) retired(st *mpsoc.Stream) {
	si := c.streams[st.GW.Name]
	if si == nil || si.st != st {
		return
	}
	si.blocks, si.samples, si.overflow, si.contiguous = streamCounters(st)
	si.st, si.export = nil, gateway.StreamExport{}
}

// onVerdict is the doctor's wedged-chain conviction: enter the ladder.
func (c *Controller) onVerdict(ci *chainInfo, v fault.Verdict) {
	if ci.state != chainServing || ci.ctrl == nil {
		return
	}
	c.event(EvVerdict, ci.name, "", v.Reason)
	if sp := c.pickSpare(); sp != nil {
		c.failover(ci, sp, v.Reason)
		return
	}
	c.evacuate(ci)
}

func (c *Controller) pickSpare() *chainInfo {
	for _, ci := range c.chains {
		if ci.state == chainSpare {
			return ci
		}
	}
	return nil
}

// failover is rung 1: migrate the whole chain to a standby pair.
func (c *Controller) failover(ci, sp *chainInfo, reason string) {
	fc, err := mpsoc.NewFailover(c.ms, mpsoc.FailoverConfig{
		Primary:    ci.idx,
		Standby:    sp.idx,
		OnComplete: func(rec mpsoc.Record) { c.onFailoverDone(ci, sp, rec) },
	})
	if err == nil {
		err = fc.Trigger(reason)
	}
	if err != nil {
		// The spare cannot take the chain (validation failure): degrade to
		// rung 2 instead of dying on the ladder.
		c.event(EvFailover, ci.name, "", fmt.Sprintf("failover to %s refused (%v); evacuating", sp.name, err))
		c.evacuate(ci)
		return
	}
	sp.state = chainOffline // claimed: not spare, not yet serving
	ci.state = chainFailed
	c.reissuePending(ci)
}

func (c *Controller) onFailoverDone(ci, sp *chainInfo, rec mpsoc.Record) {
	if err := ci.ctrl.Retarget(sp.idx); err != nil {
		// Leaves the fleet without a controller for these streams; record
		// loudly rather than guessing.
		c.event(EvFailover, sp.name, "", fmt.Sprintf("retarget failed: %v", err))
		return
	}
	sp.ctrl = ci.ctrl
	ci.ctrl = nil
	sp.state = chainServing
	if err := c.armDoctor(sp); err != nil {
		c.event(EvFailover, sp.name, "", fmt.Sprintf("doctor re-arm failed: %v", err))
	}
	moved := 0
	for _, si := range c.order {
		if si.chain == ci.pos {
			si.step(rehome, sp.pos)
			moved++
		}
	}
	for _, name := range rec.Names {
		si := c.streams[name]
		if si == nil || si.chain != sp.pos {
			continue
		}
		c.ladder = append(c.ladder, LadderStep{
			At: rec.ResumedAt, Stream: name, Rung: "failover",
			From: ci.name, To: sp.name,
			Measured: rec.MeasuredCycles, Bound: rec.BoundCycles, Replay: rec.ReplayWords,
		})
	}
	c.event(EvFailover, sp.name, "", fmt.Sprintf("%d streams from %s measured=%d bound=%d replay=%d",
		moved, ci.name, rec.MeasuredCycles, rec.BoundCycles, rec.ReplayWords))
	for _, si := range c.order {
		if si.chain == sp.pos {
			c.departIfDeferred(si)
		}
	}
}

// reissuePending re-routes the transitions that died with a failed chain.
// An arrival is re-placed (a half-attached zombie slot gets its source
// stopped; it is in no model). A departure is re-issued once the stream
// lands again, and a rebalance removal's victim is carried off the chain
// like any resident. A migrant or readmission whose target died parks with
// its export; an evacuation then moves on to its next evacuee.
func (c *Controller) reissuePending(ci *chainInfo) {
	for _, si := range c.order {
		if si.pendingOn != ci.pos {
			continue
		}
		switch si.phase {
		case placing:
			if st := c.findStream(ci, si.name); st != nil {
				st.StopSource()
			}
			si.step(retract, -1)
			c.event(EvLost, ci.name, si.name, "arrival died with the chain; re-placing")
			c.place(si, 0)
		case departing:
			si.step(endDepart, si.chain)
			si.deferDepart = true
		case moving:
			c.moveQueue, c.moving = nil, false // the rest of the plan is stale too
			si.step(endMove, si.chain)
			c.event(EvLost, ci.name, si.name, "rebalance removal died with the chain")
		case migrating:
			m := si.m
			si.step(park, -1)
			si.st.StopSource()
			c.event(EvLost, ci.name, si.name, m.path()+" target died mid-admit; parked")
			c.scheduleReadmit(si, 0)
			if m.op != nil {
				c.moveQueue, c.moving = nil, false
			} else {
				c.nextMigrant(m)
			}
		case readmitting:
			c.event(EvLost, ci.name, si.name, "readmission died with the chain; parked")
			c.unparked(si, 0)
		}
	}
}

// evacuate is rung 2: freeze the chain, settle, then re-place every live
// stream individually (rung 3, shed, per stream when no target admits it).
func (c *Controller) evacuate(ci *chainInfo) {
	msch := c.ms.Chains[ci.idx]
	settle := c.settle(ci.ctrl.MaxTau())
	if err := msch.Pair.FreezeForFailover(); err != nil {
		c.event(EvEvacuate, ci.name, "", fmt.Sprintf("freeze failed: %v", err))
		return
	}
	for _, st := range msch.Strs {
		if st.GW.Released {
			// A rebalanced-away stream's tombstone: its FIFOs left with it.
			continue
		}
		st.In.BeginRepoint()
	}
	ci.state = chainFailed
	c.reissuePending(ci)
	ci.ctrl = nil
	ev := &evacuation{composed: composed{from: ci, since: c.k.Now(), bound: uint64(settle)}}
	c.event(EvEvacuate, ci.name, "", fmt.Sprintf("settle=%d", settle))
	c.k.Schedule(settle, func() { c.evacExport(ev) })
}

// evacExport runs after the settle: export the dead chain and queue each
// live stream for re-placement, priority-ordered (higher first; the shed
// policy is exactly "lowest priority, last in name order, sheds first").
func (c *Controller) evacExport(ev *evacuation) {
	msch := c.ms.Chains[ev.from.idx]
	exports, err := msch.Pair.ExportStreams()
	if err != nil {
		c.event(EvEvacuate, ev.from.name, "", fmt.Sprintf("export failed: %v", err))
		return
	}
	moved := msch.Strs
	msch.Strs = nil
	for i, e := range exports {
		si := c.streams[e.Stream.Name]
		if si == nil || si.chain != ev.from.pos || si.st != moved[i] {
			// Departed slots (suspended), zombies and foreign names are
			// dropped with the chain.
			continue
		}
		si.step(evacuee, -1)
		si.export, si.m = e, &migrant{si: si, ev: ev, leg: &ev.composed}
		ev.queue = append(ev.queue, si.m)
	}
	sort.SliceStable(ev.queue, func(a, b int) bool {
		if ev.queue[a].si.priority != ev.queue[b].si.priority {
			return ev.queue[a].si.priority > ev.queue[b].si.priority
		}
		return ev.queue[a].si.name < ev.queue[b].si.name
	})
	c.evacNext(ev)
}

func (c *Controller) evacNext(ev *evacuation) {
	if len(ev.queue) == 0 {
		c.event(EvEvacuated, ev.from.name, "", fmt.Sprintf("%d migrated %d shed measured=%d bound=%d",
			ev.migrated, ev.shed, uint64(c.k.Now()-ev.since), ev.bound))
		return
	}
	c.placeMigrant(ev.queue[0], 0)
}

func (c *Controller) scheduleReadmit(si *streamInfo, attempt int) {
	d, ok := c.cfg.Retry.Delay(attempt)
	if !ok {
		c.event(EvParked, "", si.name, "readmission budget exhausted; awaiting a heal")
		return
	}
	c.k.Schedule(d, func() { c.tryReadmit(si, attempt) })
}

func (c *Controller) tryReadmit(si *streamInfo, attempt int) {
	if si.phase != parked {
		return
	}
	for _, tc := range c.rankServing() {
		if _, pending := c.offerMigrant(c.newAttempt(si, tc, attempt), offerReadmit); pending {
			return
		}
	}
	c.scheduleReadmit(si, attempt+1)
}

// readmitted completes a parked stream's pending readmission on tc.
func (c *Controller) readmitted(si *streamInfo, tc *chainInfo, attempt int, v admission.Verdict) {
	if !v.Accepted {
		c.unparked(si, attempt+1)
		return
	}
	si.step(readmit, tc.pos)
	c.ms.StartSource(si.st)
	c.ladder = append(c.ladder, LadderStep{
		At: c.k.Now(), Stream: si.name, Rung: "readmit",
		From: "", To: tc.name,
		Measured: uint64(v.PauseWait) + v.BusCycles, Bound: v.BoundCycles,
		Replay: len(si.export.Replay),
	})
	c.event(EvReadmit, tc.name, si.name, fmt.Sprintf("eta=%d wait=%d bound=%d",
		lastBlock(v), v.PauseWait, v.BoundCycles))
	c.departIfDeferred(si)
}

// unparked returns a stream whose readmission ended without landing to
// parked: a departure deferred meanwhile is issued, otherwise the stream
// probes again from retry attempt n.
func (c *Controller) unparked(si *streamInfo, n int) {
	si.step(unpark, -1)
	if !si.deferDepart {
		c.scheduleReadmit(si, n)
	}
	c.departIfDeferred(si)
}

// onHeal brings a deferred spare online. With shed streams waiting, the
// chain is promoted straight to serving (an empty-model admission
// controller) and the parked streams are re-kicked with a fresh retry
// budget; otherwise it joins the spare pool as a failover target.
func (c *Controller) onHeal(ci *chainInfo) {
	if ci.state != chainOffline {
		return
	}
	var shed []*streamInfo
	for _, si := range c.order {
		if si.shed() {
			shed = append(shed, si)
		}
	}
	if len(shed) == 0 {
		ci.state = chainSpare
		c.event(EvHeal, ci.name, "", "online as spare")
		return
	}
	ctrl, err := c.newCtrl(ci)
	if err != nil {
		ci.state = chainSpare
		c.event(EvHeal, ci.name, "", fmt.Sprintf("online as spare (promotion failed: %v)", err))
		return
	}
	ci.ctrl = ctrl
	ci.state = chainServing
	if err := c.armDoctor(ci); err != nil {
		c.event(EvHeal, ci.name, "", fmt.Sprintf("doctor arm failed: %v", err))
	}
	c.event(EvHeal, ci.name, "", fmt.Sprintf("online serving; re-kicking %d parked streams", len(shed)))
	// Staggered deterministic kicks: the first probe wins the pause, the
	// rest find the controller busy and re-enter the backoff loop.
	for i, si := range shed {
		c.k.Schedule(sim.Time(i+1), func() { c.tryReadmit(si, 0) })
	}
}

// ChainStatus summarises one chain for reports.
type ChainStatus struct {
	Name    string
	State   string
	Streams int // live registry streams owned
}

// ChainStatuses lists every chain in configuration order.
func (c *Controller) ChainStatuses() []ChainStatus {
	out := make([]ChainStatus, len(c.chains))
	owned := c.owned()
	for i, ci := range c.chains {
		out[i] = ChainStatus{Name: ci.name, State: ci.state.String(), Streams: owned[i]}
	}
	return out
}

// owned counts the registry streams each chain owns, by chain position.
func (c *Controller) owned() []int {
	n := make([]int, len(c.chains))
	for _, si := range c.order {
		if si.chain >= 0 {
			n[si.chain]++
		}
	}
	return n
}

// StreamStatus summarises one registry stream for reports.
type StreamStatus struct {
	Name     string
	Chain    string // owning chain ("" when parked/departed/rejected)
	State    string // live | parked | departed | rejected | placing
	Priority int
	Blocks   uint64
	Samples  uint64
	Overflow uint64
	// ContiguousOutputs is true when every collected output word is the
	// identity sequence 0,1,2,… — value-exact across every migration the
	// stream survived. Only meaningful with Config.CollectOutputs.
	ContiguousOutputs bool
}

// StreamStatuses lists every stream ever submitted, in submission order.
func (c *Controller) StreamStatuses() []StreamStatus {
	var out []StreamStatus
	for _, si := range c.order {
		ss := StreamStatus{Name: si.name, State: reported[si.phase], Priority: si.priority}
		if si.chain >= 0 {
			ss.Chain = c.chains[si.chain].name
		}
		if si.st != nil {
			ss.Blocks, ss.Samples, ss.Overflow, ss.ContiguousOutputs = streamCounters(si.st)
		} else {
			ss.Blocks, ss.Samples, ss.Overflow, ss.ContiguousOutputs = si.blocks, si.samples, si.overflow, si.contiguous
		}
		out = append(out, ss)
	}
	return out
}

// streamCounters reads the counters a StreamStatus reports from st.
func streamCounters(st *mpsoc.Stream) (blocks, samples, overflow uint64, contiguousOutputs bool) {
	return st.GW.Blocks, st.GW.SamplesOut, st.Overflows, st.Contiguous()
}

// ChainConformance is the fleet-wide Eq. 2/4/5 check for one chain.
type ChainConformance struct {
	Chain   string
	Streams int
	Result  conformance.Result
}

// Conformance runs the Eq. 2/4/5 harness over every serving chain's live
// streams with the given options (After should cut past the last
// disturbance). A migrated stream's trace spans chains; the cut scopes the
// check to the blocks served under the current owner's model. It first
// checks that each serving chain's model holds exactly the registry's
// streams on that chain: the streams Eq. 5 is proved for are the ones the
// fleet runs there.
func (c *Controller) Conformance(opt conformance.Options) ([]ChainConformance, error) {
	owned := c.owned()
	var out []ChainConformance
	for _, ci := range c.chains {
		if ci.state != chainServing || ci.ctrl == nil {
			continue
		}
		model := ci.ctrl.Model()
		if n := len(model.Streams); n != owned[ci.pos] {
			return nil, fmt.Errorf("cluster: chain %q: model holds %d streams, registry %d", ci.name, n, owned[ci.pos])
		}
		if len(model.Streams) == 0 {
			continue
		}
		bounds, err := conformance.FromModelCheckpointed(model, c.cfg.Recovery.Checkpoint, uint64(c.cfg.Recovery.CheckpointCost))
		if err != nil {
			return nil, fmt.Errorf("cluster: chain %q bounds: %w", ci.name, err)
		}
		streams := make([]*gateway.Stream, len(model.Streams))
		for i := range model.Streams {
			si := c.streams[model.Streams[i].Name]
			if si == nil || si.st == nil || si.chain != ci.pos {
				return nil, fmt.Errorf("cluster: chain %q: model stream %q is not on it in the registry", ci.name, model.Streams[i].Name)
			}
			streams[i] = si.st.GW
		}
		out = append(out, ChainConformance{
			Chain:   ci.name,
			Streams: len(streams),
			Result:  conformance.FromStreams(bounds, streams, opt),
		})
	}
	return out, nil
}
