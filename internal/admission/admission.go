// Package admission is the online control plane for a running platform:
// it admits, removes and readmits streams without violating the survivors'
// Eq. 2 (τ̂s) and Eq. 4 (γ̂s) bounds.
//
// The paper sizes block sizes ηs once, offline, with Algorithm 1 for a
// fixed stream set. A service under live traffic changes the set while
// blocks are flowing, so every request here runs the same analysis
// incrementally — an exact least-fixed-point re-solve warm-started from
// the committed blocks — and, only when the new configuration is provably
// feasible, applies it as a staged mode transition:
//
//  1. drain: arbitration pauses at the next block boundary
//     (gateway.RequestPause), so the pipeline is provably idle;
//  2. reconfigure: stream slots are reprogrammed over the configuration
//     bus in one validated transaction (gateway.ApplySlots), optionally
//     attaching a brand-new stream to a reserved ring slot
//     (mpsoc.AttachStream);
//  3. resume: arbitration restarts under the new ηs.
//
// One routine (Controller.run) applies every transition: AddStream,
// AdmitMigrated, Readmit, RemoveStream and the rollback after a failed
// canary differ only in their plan — the platform step run inside the
// drained pause (attach a reserved slot, adopt a migrant, unquarantine,
// suspend) and what they commit. A quarantine that lands during the drain moves the
// model under the plan; the routine then aborts untouched as superseded.
// The three requests that add one stream to the live set share one
// decision (grow): Algorithm 1 over the live set plus the newcomer, the
// migrant's replay-residue floor, and the buffer bounds.
//
// The transition cost is itself bounded — the drain waits at most one
// in-flight block turnaround max τ̂s plus the bus transaction — and both
// the bound and the measured cost are recorded in the decision's Verdict.
// On a checkpointing chain (its gateway.Recovery sets Checkpoint = K) that
// in-flight block additionally pays the interior quiesce/save overhead, so
// the guard uses the adjusted Eq. 2 term τ̂s(K) = Rs + (ηs + 2·⌈ηs/K⌉)·c0 +
// (⌈ηs/K⌉−1)·Csave (core.TauHatCheckpointed), with K and Csave read from
// the controlled chain. Each stream's block granularity is its decimation
// (mpsoc.StreamSpec.Decimation), read from the chain too, and so is every
// stream's rate μs, its Rs and its running ηs (mpsoc.Chain.LiveModel): a
// request carries a stream spec or a stream, never a restated model.
//
// Readmission of a quarantined stream is probational: the stream re-enters
// arbitration with a canary block; one clean completion clears probation,
// one stall re-quarantines immediately (no retry budget) and the
// controller rolls the survivors back to their previous configuration.
//
// The busy gate admits one transition at a time, so the transition in
// flight lives in the controller: its plan is one of three records held
// there and zeroed when the transition ends, and the pause and bus
// callbacks are bound once. A decision or a refusal allocates nothing once
// the decision scratch has grown; a commit allocates the verdict's Blocks,
// which may outlive the callback, and a growth's the newcomer's rate.
//
// Every decision can land in an append-only event log with deterministic
// rendering (Config.Log), so a scripted campaign (cmd/accelshare admit) is
// byte-identical across runs. The caller owns the log; a controller with
// none keeps no record of its decisions.
package admission

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// Reason is a machine-readable verdict category.
type Reason string

// Verdict reasons.
const (
	// ReasonAdmitted marks an accepted request.
	ReasonAdmitted Reason = "admitted"
	// ReasonInfeasible: Algorithm 1 has no solution (utilisation ≥ 1).
	ReasonInfeasible Reason = "infeasible"
	// ReasonBufferBound: the new configuration is feasible in time but a
	// stream's C-FIFO, fixed at build time, is smaller than the buffer
	// bound the new ηs requires.
	ReasonBufferBound Reason = "buffer-bound"
	// ReasonSolverBudget: the fixed-point iteration did not finish within
	// its round budget. The request is feasible (utilisation < 1); the
	// control plane refused to stall computing its blocks.
	ReasonSolverBudget Reason = "solver-budget"
	// ReasonNoSlot: no reserved ring slot is left for a new stream.
	ReasonNoSlot Reason = "no-reserved-slot"
	// ReasonUnknownStream: the named stream is not under control.
	ReasonUnknownStream Reason = "unknown-stream"
	// ReasonNotQuarantined: readmission of a stream that is not quarantined.
	ReasonNotQuarantined Reason = "not-quarantined"
	// ReasonBusy: another mode transition is still in flight.
	ReasonBusy Reason = "busy"
	// ReasonSuperseded: the stream set changed while the transition was
	// draining (a fault quarantine landed mid-drain), so the decision's
	// solved blocks and slot map are stale. The transition aborts before
	// touching the platform; re-issue the request against the new model.
	ReasonSuperseded Reason = "superseded"
	// ReasonBadRequest: malformed request parameters.
	ReasonBadRequest Reason = "bad-request"
)

// BlockAssignment is one stream's ηs in a verdict (a slice, not a map, so
// rendering order is deterministic).
type BlockAssignment struct {
	Name  string
	Block int64
}

// Verdict is the outcome of one admission request.
type Verdict struct {
	Accepted bool
	Reason   Reason
	// Detail names the violated constraint or failed step for rejections.
	Detail string
	// Blocks is the applied assignment (accepted requests only).
	Blocks []BlockAssignment
	// SolveRounds is the fixed-point iteration count of the solve that
	// produced the assignment.
	SolveRounds int
	// BoundCycles bounds the transition: max τ̂s over the outgoing
	// configuration (the drain can wait for one in-flight block, retries
	// included in the Rs + (η+2)c0 envelope) plus the configuration-bus
	// transaction. PauseWait and BusCycles are the measured parts;
	// PauseWait + BusCycles ≤ BoundCycles on every accepted request.
	BoundCycles uint64
	PauseWait   sim.Time
	BusCycles   uint64
}

// EventKind tags one event-log entry.
type EventKind string

// Event kinds.
const (
	EvAdd        EventKind = "add"
	EvRemove     EventKind = "remove"
	EvReadmit    EventKind = "readmit"
	EvQuarantine EventKind = "quarantine"
	EvCanaryPass EventKind = "canary-pass"
	EvCanaryFail EventKind = "canary-fail"
	EvRollback   EventKind = "rollback"
	// EvRollbackFail records a canary rollback the controller could not
	// apply. The survivors keep the readmission assignment, which was
	// proved feasible for the larger set and so still holds for them.
	EvRollbackFail EventKind = "rollback-failed"
	// EvRetarget records the controller re-attaching to the standby chain
	// after a failover migrated its streams there.
	EvRetarget EventKind = "retarget"
	// EvMigrate records the adoption of a stream evacuated from another
	// chain (AdmitMigrated): an addition that imports exported gateway state
	// instead of attaching a fresh stream.
	EvMigrate EventKind = "migrate"
)

// Event is one event-log entry. Request kinds carry the Verdict; platform
// notifications (quarantine, canary outcomes) carry only the stream.
type Event struct {
	At      sim.Time
	Kind    EventKind
	Stream  string
	Verdict *Verdict
}

// AddRequest asks to admit a new stream.
type AddRequest struct {
	// Spec describes the platform-level stream: its source period is its
	// rate μs (mpsoc.StreamSpec.Rate). Spec.Block is ignored (the controller
	// computes ηs) and Spec.StartSuspended is forced (the new slot activates
	// atomically with the survivors' new sizes).
	Spec mpsoc.StreamSpec
}

// Config parameterises a Controller.
type Config struct {
	// Chain selects the controlled chain of the MultiSystem; its live
	// streams are the admitted set, and each slot a transition reprograms
	// costs mpsoc.SlotCost bus cycles.
	Chain int
	// Solver is the Algorithm 1 decision procedure (nil = the production
	// stack solve.Default(0, 0): the warm-start layer over the exact least
	// fixed point).
	// The controller passes its committed assignment as Problem.Prev on
	// every re-solve, so warm-start soundness (additions reuse, removals
	// restart cold) is the solver stack's responsibility.
	Solver solve.Solver
	// Engines builds the per-accelerator engine set for a stream admitted
	// from a script (Play); direct AddStream callers supply engines in the
	// request spec instead.
	Engines func(name string) []accel.Engine
	// Log, when set, receives every event in order: each request's
	// verdict, quarantines, canary outcomes and retargets. The controller
	// copies a verdict to the heap only for the log. A fleet-managed
	// controller leaves it nil and keeps no log.
	Log *[]Event
}

// Controller is the admission control plane for one chain.
type Controller struct {
	ms     *mpsoc.MultiSystem
	ci     int
	cfg    Config
	solver solve.Solver

	model *core.System
	// gwSlot[i] is the gateway slot of model stream i: the gateway's slot
	// table only grows, while the model tracks the live set.
	gwSlot []int
	decim  []int64

	// parked holds removed and quarantined streams eligible for Readmit.
	parked map[string]parkedStream

	// pendingCanary is the in-flight readmission probe, if any.
	pendingCanary *canaryProbe

	// gen counts model mutations (transition commits, quarantines, canary
	// shrinkage). A transition snapshots gen at decision time; the platform
	// can quarantine a stream while the pause is still draining, so the
	// pause callback compares gen against its snapshot and aborts its
	// stale plan instead of applying it over the mutated model.
	gen uint64
	// load is the live model's utilisation at generation loadGen: only a
	// commit, a quarantine or a retarget changes it, and each moves gen.
	load    core.Load
	loadGen uint64

	// next is the scratch every decision is built in (see decision).
	next decision

	// plan is the transition in flight, from its pause request to its
	// end, and so the busy gate: it points at one of grw, rem and rb, and
	// end zeroes them. onDrained and onApplied are run's pause and bus
	// callbacks, method values bound once in New.
	plan                 plan
	grw                  growth
	rem                  removal
	rb                   rollback
	onDrained, onApplied func()
}

// decision is the scratch grow and RemoveStream decide in: the candidate
// configuration of the live set — its model, granularities and gateway
// slots, with the solved blocks stored in the model — the solver's
// problem, warm start and working storage, and the slot updates a
// transition hands the pair. A commit copies the candidate into the live
// configuration, so every buffer serves the next decision too. The busy
// gate keeps a decision from rebuilding it while an accepted transition
// drains; a transition stranded on a failed pair never commits.
type decision struct {
	model   core.System
	decim   []int64
	slots   []int
	caps    [][2]int
	rate    big.Rat // the newcomer's rate until its growth commits
	prev    []solve.Assignment
	prob    solve.Problem
	scratch core.Scratch
	updates []gateway.SlotUpdate
}

// parkedStream is a removed or quarantined stream: its rate, Rs and
// decimation are the spec of the stream at its gateway slot.
type parkedStream struct {
	slot        int
	quarantined bool
}

type canaryProbe struct {
	name string
	slot int
	// prev is the survivors' assignment before the readmission, for the
	// rollback transition after a failed canary.
	prev []BlockAssignment
}

// New attaches a controller to one chain of a running platform. The
// chain's live streams, in slot order, are the admitted set, and the
// controller's model is read from the platform (mpsoc.Chain.LiveModel):
// each stream's rate from its source period, its Rs, its running block and
// its decimation.
func New(ms *mpsoc.MultiSystem, cfg Config) (*Controller, error) {
	if cfg.Chain < 0 || cfg.Chain >= len(ms.Chains) {
		return nil, fmt.Errorf("admission: chain %d out of range", cfg.Chain)
	}
	ch := ms.Chains[cfg.Chain]
	model, slots := ch.LiveModel()
	for i := range model.Streams {
		if model.Streams[i].Rate == nil {
			return nil, fmt.Errorf("admission: stream %q has no source period, so no rate", model.Streams[i].Name)
		}
	}
	solver := cfg.Solver
	if solver == nil {
		solver = solve.Default(0, 0)
	}
	c := &Controller{
		ms: ms, ci: cfg.Chain, cfg: cfg, solver: solver,
		model:  model,
		gwSlot: slots,
		load:   model.Load(),
		parked: map[string]parkedStream{},
	}
	c.onDrained, c.onApplied = c.drained, c.applied
	for _, slot := range slots {
		c.decim = append(c.decim, ch.Strs[slot].Spec.Decimation)
	}
	ch.Pair.SetQuarantineObserver(c.onQuarantine)
	ch.Pair.SetCanaryHook(c.onCanary)
	return c, nil
}

// Model returns the controller's live temporal model (read-only).
func (c *Controller) Model() *core.System { return c.model }

// Busy reports whether a staged transition or canary probe is in flight:
// the rebalancer skips a tick rather than queue moves behind a drain whose
// outcome may invalidate the plan.
func (c *Controller) Busy() bool { return c.plan != nil || c.pendingCanary != nil }

// Load returns the live model's exact utilisation Σ μs·ρ, computed once per
// model generation.
func (c *Controller) Load() core.Load {
	if c.loadGen != c.gen {
		c.load, c.loadGen = c.model.Load(), c.gen
	}
	return c.load
}

// ForgetParked drops a parked stream from the controller's books and returns
// its gateway slot: the rebalancer's hand-off primitive. RemoveStream parks
// the victim so its name and slot stay recoverable via Readmit — but a
// rebalanced stream is not coming back: it is released from the gateway
// (tombstoned slot) and re-admitted on another chain, and a stale parked
// entry would wedge a later failover's Retarget (every parked name must
// exist on the standby). Returns false when no such parked stream exists.
func (c *Controller) ForgetParked(name string) (int, bool) {
	p, ok := c.parked[name]
	if !ok {
		return 0, false
	}
	delete(c.parked, name)
	return p.slot, true
}

func (c *Controller) chain() *mpsoc.Chain { return c.ms.Chains[c.ci] }

func (c *Controller) now() sim.Time { return c.ms.K.Now() }

// record appends an event to Config.Log, when one is set, with its own
// copy of v (nil for a platform notification).
func (c *Controller) record(kind EventKind, stream string, v *Verdict) {
	if c.cfg.Log == nil {
		return
	}
	e := Event{At: c.now(), Kind: kind, Stream: stream}
	if v != nil {
		e.Verdict = new(Verdict)
		*e.Verdict = *v
	}
	*c.cfg.Log = append(*c.cfg.Log, e)
}

// reject refuses a request: the verdict is built here and handed to done
// by value, so a refusal allocates nothing unless a log keeps it.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (c *Controller) reject(kind EventKind, stream string, reason Reason, detail string, done func(Verdict)) {
	v := Verdict{Accepted: false, Reason: reason, Detail: detail}
	c.record(kind, stream, &v)
	if done != nil {
		done(v)
	}
}

// gate admits a new transition, or rejects the request busy: one transition
// drains at a time, and a pending canary outcome may still roll the model
// back to the assignment it captured at readmission time.
func (c *Controller) gate(kind EventKind, name string, done func(Verdict)) bool {
	switch {
	case c.plan != nil:
		c.reject(kind, name, ReasonBusy, "another transition is in flight", done)
	case c.pendingCanary != nil && kind == EvReadmit:
		c.reject(kind, name, ReasonBusy, "a canary probe is already in flight", done)
	case c.pendingCanary != nil:
		c.reject(kind, name, ReasonBusy, "a canary probe is in flight", done)
	default:
		return true
	}
	return false
}

// modelIndex returns the model index of the named live stream, or -1.
func (c *Controller) modelIndex(name string) int {
	for i := range c.model.Streams {
		if c.model.Streams[i].Name == name {
			return i
		}
	}
	return -1
}

// park records a stream that left the live set, recoverable via Readmit.
func (c *Controller) park(name string, slot int, quarantined bool) {
	c.parked[name] = parkedStream{slot: slot, quarantined: quarantined}
}

// assignment renders the model's streams and blocks as a verdict
// assignment.
func assignment(model *core.System) []BlockAssignment {
	out := make([]BlockAssignment, len(model.Streams))
	for i := range model.Streams {
		out[i] = BlockAssignment{Name: model.Streams[i].Name, Block: model.Streams[i].Block}
	}
	return out
}

// solve runs the incremental Algorithm 1 over the candidate model through
// the configured solve.Solver. The previously committed assignment rides
// along as Problem.Prev; the solver stack's warm-start layer decides
// whether it is a sound seed (the candidate only adds streams) or whether
// the iteration must restart cold (a committed stream is gone, so the
// least fixed point shrank). Rejections keep their error identities:
// core.ErrInfeasible and core.ErrSolverBudget surface unchanged through the
// interface.
func (c *Controller) solve(d *decision) (*solve.Result, error) {
	d.prev = d.prev[:0]
	for i := range c.model.Streams {
		d.prev = append(d.prev, solve.Assignment{Name: c.model.Streams[i].Name, Block: c.model.Streams[i].Block})
	}
	// Set field by field: the Problem keeps the solver's warm start and
	// Result for the next solve.
	d.prob.Model, d.prob.Granularity, d.prob.Prev, d.prob.Scratch = &d.model, d.decim, d.prev, &d.scratch
	return c.solver.Solve(&d.prob)
}

// decide resets the decision scratch to a copy of the live configuration
// and returns it. The copy shares the live streams' rates, which nothing
// mutates.
func (c *Controller) decide() *decision {
	d := &c.next
	d.model.Chain, d.model.ClockHz = c.model.Chain, c.model.ClockHz
	d.model.Streams = append(d.model.Streams[:0], c.model.Streams...)
	d.decim = append(d.decim[:0], c.decim...)
	d.slots = append(d.slots[:0], c.gwSlot...)
	return d
}

// adopt makes the decided candidate the live configuration, copying it in
// place: the model's identity, which Model hands out, never changes.
func (c *Controller) adopt(d *decision) {
	c.model.Streams = append(c.model.Streams[:0], d.model.Streams...)
	c.decim = append(c.decim[:0], d.decim...)
	c.gwSlot = append(c.gwSlot[:0], d.slots...)
}

// checkBuffers verifies every candidate stream's C-FIFOs against the
// bounds its new ηs implies: the input FIFO must hold one claimed block
// plus a worst-case service interval of arrivals (InputBufferBound), the
// output FIFO one output block in flight plus one draining
// (OutputBufferBound). caps[i] is the (in, out) capacity pair. The service
// interval γ̂s = Σ τ̂ is the same for every stream (Eq. 4), so it is
// computed once and the check costs O(n).
//
//accellint:noalloc guard=TestCheckBuffersZeroAlloc
func checkBuffers(model *core.System, decim []int64, caps [][2]int) (string, error) {
	if len(model.Streams) == 0 {
		return "", nil
	}
	gamma, err := model.RoundDuration()
	if err != nil {
		return "", err
	}
	for i := range model.Streams {
		inB, err := model.InputBufferBoundOver(i, gamma)
		if err != nil {
			return "", err
		}
		if int64(caps[i][0]) < inB {
			//accellint:alloc a rejection names the stream and its bound
			return fmt.Sprintf("stream %q input FIFO %d < bound %d",
				model.Streams[i].Name, caps[i][0], inB), nil
		}
		outB, err := model.OutputBufferBound(i, decim[i])
		if err != nil {
			return "", err
		}
		if int64(caps[i][1]) < outB {
			//accellint:alloc a rejection names the stream and its bound
			return fmt.Sprintf("stream %q output FIFO %d < bound %d",
				model.Streams[i].Name, caps[i][1], outB), nil
		}
	}
	return "", nil
}

// MaxTau is the live model's largest τ̂s — the checkpoint-adjusted τ̂s(K)
// when the controlled chain checkpoints (its recovery enabled with
// Checkpoint = K), since a block in flight also pays its interior quiesces.
// A pause waits for at most one such block, and the fleet clamps a
// migration's settle to it.
func (c *Controller) MaxTau() uint64 { return c.chain().MaxTau(c.model) }

// transitionBound is the drain-plus-bus envelope for one transition over
// the OUTGOING configuration: the pause can wait for one in-flight block
// of the slowest stream (MaxTau), then the bus transaction reprograms
// `slots` slots.
func (c *Controller) transitionBound(slots int) uint64 {
	return c.MaxTau() + uint64(mpsoc.SlotCost)*uint64(slots)
}

// rejectReason maps a solver error to a verdict reason.
func rejectReason(err error) (Reason, string) {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		return ReasonInfeasible, err.Error()
	case errors.Is(err, core.ErrSolverBudget):
		return ReasonSolverBudget, err.Error()
	default:
		return ReasonBadRequest, err.Error()
	}
}

// transition is the request-independent half of the decided staged mode
// transition in flight (DESIGN §7): what the log records, who hears the
// verdict, and what run snapshots when it requests the pause.
type transition struct {
	// kind is the event a commit records, and a rejection too unless
	// failKind is set.
	kind, failKind EventKind
	name           string
	// v is the accepted verdict; run measures PauseWait and BusCycles, and
	// the commit renders Blocks.
	v    Verdict
	done func(Verdict)
	// gen and requested are the model generation and the time of the
	// pause request.
	gen       uint64
	requested sim.Time
}

func (t *transition) header() *transition { return t }

// A plan is one decided transition: its header, and the request-specific
// steps run calls. The three plans are growth (AddStream, AdmitMigrated,
// Readmit), removal (RemoveStream) and rollback (a failed canary); each is
// a record the controller holds (grw, rem, rb).
type plan interface {
	header() *transition
	// step runs inside the drained pause: the platform step (attach a
	// reserved slot, adopt a migrant, unquarantine or suspend) and the
	// slot updates of the new configuration.
	step(c *Controller) ([]gateway.SlotUpdate, error)
	// commit moves the controller to the new configuration once the pair
	// runs it.
	commit(c *Controller)
	// undo cleans up after a platform step whose slot reprogramming was
	// refused and returns a suffix for the rejection detail.
	undo(c *Controller) string
}

// run applies p: drain the pair to a block boundary (RequestPause), run the
// platform step, reprogram the slots in one configuration-bus transaction
// (ApplySlots), resume and commit. The busy gate is held from the pause
// request to the commit. A quarantine landing during the drain moves the
// model under the plan, so a newer generation aborts the transition
// untouched as superseded.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (c *Controller) run(p plan) {
	t := p.header()
	c.plan = p
	t.gen, t.requested = c.gen, c.now()
	if err := c.chain().Pair.RequestPause(c.onDrained); err != nil {
		c.fail(ReasonBusy, err.Error())
	}
}

// drained is run's pause callback: the pair is at a block boundary.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (c *Controller) drained() {
	p := c.plan
	t := p.header()
	if c.gen != t.gen {
		c.abort(ReasonSuperseded, "stream set changed during drain")
		return
	}
	t.v.PauseWait = c.now() - t.requested
	updates, err := p.step(c)
	if err != nil {
		c.abort(ReasonBadRequest, err.Error())
		return
	}
	t.v.BusCycles = uint64(mpsoc.SlotCost) * uint64(len(updates))
	if err := c.chain().Pair.ApplySlots(updates, mpsoc.SlotCost, c.onApplied); err != nil {
		//accellint:alloc a refusal names the failed step
		c.abort(ReasonBadRequest, err.Error()+p.undo(c))
	}
}

// applied is run's bus callback: the pair runs the new configuration. The
// verdict, its done and its log entry are copied out of the record before
// done runs, since done may start the next transition in the same record.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (c *Controller) applied() {
	p := c.plan
	t := p.header()
	c.chain().Pair.Resume()
	p.commit(c)
	c.gen++
	v, kind, name, done := t.v, t.kind, t.name, t.done
	// The verdict owns its assignment: it can outlive the callback.
	v.Blocks = assignment(c.model)
	c.end()
	c.record(kind, name, &v)
	if done != nil {
		done(v)
	}
}

// abort resumes the pair paused for the transition in flight and rejects
// the transition.
func (c *Controller) abort(reason Reason, detail string) {
	c.chain().Pair.Resume()
	c.fail(reason, detail)
}

// fail ends the transition in flight, which releases the busy gate, and
// rejects it, logged as its failKind when set.
func (c *Controller) fail(reason Reason, detail string) {
	t := c.plan.header()
	kind, name, done := t.kind, t.name, t.done
	if t.failKind != "" {
		kind = t.failKind
	}
	c.end()
	c.reject(kind, name, reason, detail, done)
}

// end releases the busy gate and zeroes the records of the transition that
// ended (commit, abort or Retarget), so that none pins a departed stream's
// spec, engines or source, a migrant's stream and export, or a done
// callback.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (c *Controller) end() {
	c.plan = nil
	c.grw, c.rem, c.rb = growth{}, removal{}, rollback{}
}

// newcomer is the stream a growth adds to the live set. Its spec gives its
// rate, Rs, decimation and (in, out) C-FIFO capacities; minBlock floors its
// ηs.
type newcomer struct {
	spec     *mpsoc.StreamSpec
	minBlock int64
}

// growth is a plan that adds one stream to the live set. Its candidate is
// the controller's decision scratch. How the newcomer joins is its kind:
// EvAdd attaches spec to a reserved slot, EvMigrate adopts stream with its
// export, EvReadmit returns the parked stream to its slot.
type growth struct {
	transition
	d      *decision
	blocks []int64
	spec   mpsoc.StreamSpec
	stream *mpsoc.Stream
	export gateway.StreamExport
	parked parkedStream
	// prev is a readmitted stream's survivors' assignment, for the rollback
	// after a failed canary.
	prev []BlockAssignment
	slot int // the newcomer's gateway slot, once attached
}

func (g *growth) step(c *Controller) ([]gateway.SlotUpdate, error) {
	last := len(g.blocks) - 1
	up, err := g.attach(c, g.blocks[last])
	if err != nil {
		return nil, err
	}
	g.slot = up.Stream
	return g.d.slotUpdates(c.gwSlot, c.decim, g.blocks[:last], up), nil
}

// attach runs the newcomer's platform step inside the drained pause and
// returns its slot update.
func (g *growth) attach(c *Controller, block int64) (gateway.SlotUpdate, error) {
	switch g.kind {
	case EvAdd:
		// StartSuspended is forced: the slot activates with the survivors'
		// new sizes.
		g.spec.Block, g.spec.StartSuspended = block, true
		if _, err := c.ms.AttachStream(c.ci, g.spec); err != nil {
			return gateway.SlotUpdate{}, err
		}
		return gateway.SlotUpdate{Stream: len(c.chain().Strs) - 1, Activate: true}, nil
	case EvMigrate:
		slot, err := c.ms.AdoptStream(c.ci, g.stream, g.export)
		return gateway.SlotUpdate{Stream: slot, SetBlock: block, SetOutBlock: block / g.stream.Spec.Decimation}, err
	default:
		// The slot returns at the re-solved ηs, not the one it left with.
		p := g.parked
		return gateway.SlotUpdate{Stream: p.slot, SetBlock: block, SetOutBlock: block / c.chain().Strs[p.slot].Spec.Decimation,
			Activate: !p.quarantined, Unquarantine: p.quarantined, Probation: true}, nil
	}
}

func (g *growth) commit(c *Controller) {
	g.d.slots = append(g.d.slots, g.slot)
	// The live model keeps a rate of its own.
	last := len(g.d.model.Streams) - 1
	g.d.model.Streams[last].Rate = new(big.Rat).Set(&g.d.rate)
	c.adopt(g.d)
	if g.kind != EvReadmit {
		return
	}
	p := g.parked
	if !p.quarantined {
		// A removed stream's source was stopped; restart it.
		c.ms.StartSource(c.chain().Strs[p.slot])
	}
	delete(c.parked, g.name)
	c.pendingCanary = &canaryProbe{name: g.name, slot: p.slot, prev: g.prev}
}

// undo stops a newcomer attached or adopted before its slot reprogramming
// was refused, and parks it.
func (g *growth) undo(c *Controller) string {
	switch g.kind {
	case EvAdd:
		// AttachStream already consumed the reserved ring slot and started
		// the source; don't leak a producing orphan behind the rejection.
		// The slot stays suspended (StartSuspended is forced) and the
		// source stops.
		c.chain().Strs[g.slot].StopSource()
	case EvMigrate:
		// The stream is already imported (validation makes this path
		// unreachable, but never leave an unaccounted live slot behind):
		// suspend it best-effort.
		_ = c.chain().Pair.ApplySlots([]gateway.SlotUpdate{{Stream: g.slot, Suspend: true}}, mpsoc.SlotCost, nil)
	default:
		return ""
	}
	c.park(g.name, g.slot, false)
	return "; stream parked, recover via readmit"
}

// grow decides a request that adds one stream to the live set (AddStream,
// AdmitMigrated, Readmit) and returns its plan, the controller's growth
// record, or nil after recording the rejection. Algorithm 1 runs over the
// live set plus n: adding a stream grows the operator pointwise, so the
// committed assignment is a sound warm start. A replay-residue floor above
// the solved ηs bumps n's block to the next decimation multiple and
// re-verifies the whole assignment exactly against Eq. 6 (solve.Verify):
// growth above the least fixed point is not automatically feasible. Every
// stream's C-FIFOs must then hold the new buffer bounds. The decision is
// built in the controller's scratch, so it allocates nothing once the
// scratch has grown to the largest live set.
//
//accellint:noalloc guard=TestGrowZeroAllocPerLiveStream
func (c *Controller) grow(kind EventKind, n newcomer, done func(Verdict)) *growth {
	d := c.decide()
	name, decimation := n.spec.Name, max(n.spec.Decimation, 1)
	//accellint:alloc the scratch grows to the largest live set once
	d.model.Streams = append(d.model.Streams, n.spec.Model(&d.rate, 0))
	//accellint:alloc the scratch grows to the largest live set once
	d.decim = append(d.decim, decimation)
	res, err := c.solve(d)
	if err != nil {
		reason, detail := rejectReason(err)
		c.reject(kind, name, reason, detail, done)
		return nil
	}
	blocks, last := res.Blocks, len(res.Blocks)-1
	floored := blocks[last] < n.minBlock
	if floored {
		b := n.minBlock
		if rem := b % decimation; rem != 0 {
			b += decimation - rem
		}
		//accellint:alloc a migrant's floored assignment is its own copy
		blocks = append([]int64(nil), blocks...)
		blocks[last] = b
	}
	for i, b := range blocks {
		d.model.Streams[i].Block = b
	}
	if floored && !solve.Verify(&d.model, d.decim, blocks).Feasible {
		//accellint:alloc a rejection names the floor
		detail := fmt.Sprintf("replay residue floors eta at %d, infeasible alongside the survivors", blocks[last])
		c.reject(kind, name, ReasonInfeasible, detail, done)
		return nil
	}
	//accellint:alloc the scratch grows to the largest live set once
	d.caps = append(c.liveCaps(d.caps), [2]int{n.spec.InCapacity, n.spec.OutCapacity})
	if detail, err := checkBuffers(&d.model, d.decim, d.caps); err != nil {
		c.reject(kind, name, ReasonBadRequest, err.Error(), done)
		return nil
	} else if detail != "" {
		c.reject(kind, name, ReasonBufferBound, detail, done)
		return nil
	}
	c.grw = growth{
		transition: transition{kind: kind, name: name, done: done, v: Verdict{
			Accepted:    true,
			Reason:      ReasonAdmitted,
			BoundCycles: c.transitionBound(len(d.model.Streams)),
			SolveRounds: res.Rounds,
		}},
		d: d, blocks: blocks,
	}
	return &c.grw
}

// AddStream requests admission of a new stream. The decision is made
// immediately; when accepted, the staged transition (drain, attach +
// reconfigure, resume) runs asynchronously and done fires with the final
// verdict once the platform is streaming under the new configuration.
// done fires immediately on rejection.
func (c *Controller) AddStream(req AddRequest, done func(Verdict)) {
	name := req.Spec.Name
	if !c.gate(EvAdd, name, done) || !c.admissible(EvAdd, &req.Spec, done) {
		return
	}
	if c.chain().ReservedSlots() == 0 {
		c.reject(EvAdd, name, ReasonNoSlot, "all reserved ring slots consumed", done)
		return
	}
	g := c.grow(EvAdd, newcomer{spec: &req.Spec}, done)
	if g == nil {
		return
	}
	g.spec = req.Spec
	c.run(g)
}

// admissible rejects a newcomer whose source has no period, so no rate, or
// whose name is already live or parked.
func (c *Controller) admissible(kind EventKind, spec *mpsoc.StreamSpec, done func(Verdict)) bool {
	_, parked := c.parked[spec.Name]
	switch {
	case spec.SourcePeriod == 0:
		c.reject(kind, spec.Name, ReasonBadRequest, "no source period, so no rate", done)
	case parked || c.modelIndex(spec.Name) >= 0:
		c.reject(kind, spec.Name, ReasonBadRequest, "stream name already in use", done)
	default:
		return true
	}
	return false
}

// liveCaps sets caps to the (in, out) FIFO capacities of the live streams
// in model order.
func (c *Controller) liveCaps(caps [][2]int) [][2]int {
	ch := c.chain()
	caps = caps[:0]
	for _, slot := range c.gwSlot {
		caps = append(caps, [2]int{ch.Strs[slot].In.Capacity(), ch.Strs[slot].Out.Capacity()})
	}
	return caps
}

// slotUpdates builds, in the scratch, the SetBlock/SetOutBlock updates that
// move the streams at gateway slots `slots` (granularities decim) to
// blocks, followed by extra. The pair copies them, so the scratch serves
// the next transition.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (d *decision) slotUpdates(slots []int, decim, blocks []int64, extra ...gateway.SlotUpdate) []gateway.SlotUpdate {
	d.updates = d.updates[:0]
	for i, b := range blocks {
		//accellint:alloc the scratch grows to the largest live set once
		d.updates = append(d.updates, gateway.SlotUpdate{Stream: slots[i], SetBlock: b, SetOutBlock: b / decim[i]})
	}
	//accellint:alloc the scratch grows to the largest live set once
	d.updates = append(d.updates, extra...)
	return d.updates
}

// RemoveStream retires a live stream: its slot is suspended, its source
// stopped, and the survivors' blocks re-solved from scratch (removal
// shrinks the least fixed point, so the previous assignment is no longer
// minimal — and no longer a sound warm start). The stream is parked and
// can come back via Readmit.
//
//accellint:noalloc guard=TestRemovalZeroAlloc
func (c *Controller) RemoveStream(name string, done func(Verdict)) {
	if !c.gate(EvRemove, name, done) {
		return
	}
	idx := c.modelIndex(name)
	if idx < 0 {
		c.reject(EvRemove, name, ReasonUnknownStream, "stream is not live on this chain", done)
		return
	}
	if len(c.model.Streams) == 1 {
		c.reject(EvRemove, name, ReasonBadRequest, "cannot remove the last stream", done)
		return
	}
	d := c.decide()
	d.model.Streams = slices.Delete(d.model.Streams, idx, idx+1)
	d.decim = slices.Delete(d.decim, idx, idx+1)
	d.slots = slices.Delete(d.slots, idx, idx+1)

	// The removed stream is still in Prev but absent from the candidate, so
	// the solver stack restarts cold — the shrunken least fixed point may
	// lie below every warm seed the old assignment could provide.
	res, err := c.solve(d)
	if err != nil {
		reason, detail := rejectReason(err)
		c.reject(EvRemove, name, reason, detail, done)
		return
	}
	for i, b := range res.Blocks {
		d.model.Streams[i].Block = b
	}
	c.rem = removal{
		transition: transition{kind: EvRemove, name: name, done: done, v: Verdict{
			Accepted:    true,
			Reason:      ReasonAdmitted,
			BoundCycles: c.transitionBound(len(c.model.Streams)),
			SolveRounds: res.Rounds,
		}},
		slot: c.gwSlot[idx], d: d, blocks: res.Blocks,
	}
	c.run(&c.rem)
}

// removal is a plan that retires the named live stream from its gateway
// slot; the survivors keep their slots and move to blocks. Its candidate is
// the controller's decision scratch, and blocks live in its solver scratch.
type removal struct {
	transition
	slot   int
	d      *decision
	blocks []int64
}

func (r *removal) step(*Controller) ([]gateway.SlotUpdate, error) {
	return r.d.slotUpdates(r.d.slots, r.d.decim, r.blocks, gateway.SlotUpdate{Stream: r.slot, Suspend: true}), nil
}

func (r *removal) commit(c *Controller) {
	c.chain().Strs[r.slot].StopSource()
	c.park(r.name, r.slot, false)
	c.adopt(r.d)
}

func (*removal) undo(*Controller) string { return "" }

// quarantine parks live stream i, which the gateway removed from
// arbitration, and shrinks the model around it. The survivors keep their
// ηs — with one stream gone every γ̂ only shrinks, so the running
// assignment stays feasible without a transition — and the generation bump
// invalidates any transition plan still draining.
func (c *Controller) quarantine(i int) {
	c.park(c.model.Streams[i].Name, c.gwSlot[i], true)
	c.model.Streams = slices.Delete(c.model.Streams, i, i+1)
	c.decim = slices.Delete(c.decim, i, i+1)
	c.gwSlot = slices.Delete(c.gwSlot, i, i+1)
	c.gen++
}

// onQuarantine is the gateway's quarantine observer: the platform removed
// the stream from arbitration on its own (fault recovery exhausted the
// retry budget).
func (c *Controller) onQuarantine(slot int) {
	i := slices.Index(c.gwSlot, slot)
	if i < 0 {
		return
	}
	name := c.model.Streams[i].Name
	if c.pendingCanary != nil && c.pendingCanary.name == name {
		return // canary failure: onCanary handles the rollback
	}
	c.quarantine(i)
	c.record(EvQuarantine, name, nil)
}

// Readmit probes a parked (quarantined or removed) stream back into
// service. The re-solve treats it as a new addition (warm start valid);
// the transition unquarantines the slot with Probation set, so the
// stream's first block is a canary: one clean completion confirms the
// readmission, one stall re-quarantines it immediately and the controller
// rolls the survivors back.
func (c *Controller) Readmit(name string, done func(Verdict)) {
	if !c.gate(EvReadmit, name, done) {
		return
	}
	p, ok := c.parked[name]
	if !ok {
		if c.modelIndex(name) >= 0 {
			c.reject(EvReadmit, name, ReasonNotQuarantined, "stream is live", done)
		} else {
			c.reject(EvReadmit, name, ReasonUnknownStream, "stream was never admitted", done)
		}
		return
	}
	g := c.grow(EvReadmit, newcomer{spec: &c.chain().Strs[p.slot].Spec}, done)
	if g == nil {
		return
	}
	g.parked, g.prev = p, assignment(c.model)
	c.run(g)
}

// onCanary resolves a pending readmission probe: a clean canary confirms
// the new configuration; a stall means the gateway already re-quarantined
// the stream, and the controller parks it again and rolls the survivors
// back to their previous ηs with another staged transition.
func (c *Controller) onCanary(slot int, ok bool) {
	p := c.pendingCanary
	if p == nil || p.slot != slot {
		return
	}
	c.pendingCanary = nil
	if ok {
		c.record(EvCanaryPass, p.name, nil)
		return
	}
	c.record(EvCanaryFail, p.name, nil)
	idx := c.modelIndex(p.name)
	if idx < 0 {
		return
	}
	c.quarantine(idx)
	// Roll the survivors back to the assignment that held before the
	// failed readmission (it was feasible then; with the probed stream
	// gone again it is feasible now). If the rollback cannot be applied,
	// the survivors keep the readmission ηs — feasible for the larger set,
	// hence still safe, just not minimal — and the dropped rollback is
	// recorded as a rollback-failed event rather than lost silently. The
	// gate cannot be held while requests wait on the canary, but never
	// clobber another transition's busy gate.
	if !c.gate(EvRollbackFail, p.name, nil) {
		return
	}
	// Map prev onto the current model by name: a survivor can itself have
	// been quarantined while the canary was pending, so prev's length and
	// order need not match the model any more. Streams without a prev
	// entry keep their current (feasible-for-a-larger-set) block.
	blocks := make([]int64, len(c.model.Streams))
	for i := range c.model.Streams {
		blocks[i] = c.model.Streams[i].Block
		for _, a := range p.prev {
			if a.Name == c.model.Streams[i].Name {
				blocks[i] = a.Block
				break
			}
		}
	}
	c.rb = rollback{
		transition: transition{kind: EvRollback, failKind: EvRollbackFail, name: p.name, v: Verdict{
			Accepted:    true,
			Reason:      ReasonAdmitted,
			BoundCycles: c.transitionBound(len(blocks)),
		}},
		blocks: blocks,
	}
	c.run(&c.rb)
}

// rollback is a plan that moves the live streams back to blocks.
type rollback struct {
	transition
	blocks []int64
}

func (r *rollback) step(c *Controller) ([]gateway.SlotUpdate, error) {
	return c.next.slotUpdates(c.gwSlot, c.decim, r.blocks), nil
}

func (r *rollback) commit(c *Controller) {
	for i := range c.model.Streams {
		c.model.Streams[i].Block = r.blocks[i]
	}
}

func (*rollback) undo(*Controller) string { return "" }

// Retarget re-attaches the controller to another chain after a failover
// migrated its streams there. Slots are re-mapped BY NAME against the new
// pair's table (failover preserves order, but the controller should not
// depend on that), the model's block sizes refresh from the live table (the
// failover re-solves them for a standby of different timing), and the
// model's chain parameters become the new chain's (mpsoc.ChainSpec.Timing). A
// transition that was pending on the dead pair is dropped: a failed pair
// drops its pending pause callback and never completes a slot transaction,
// so the busy gate is released, the in-flight record is zeroed and the
// transition's done never fires.
func (c *Controller) Retarget(chain int) error {
	if chain < 0 || chain >= len(c.ms.Chains) {
		return fmt.Errorf("admission: retarget chain %d out of range", chain)
	}
	if chain == c.ci {
		return fmt.Errorf("admission: already attached to chain %d", chain)
	}
	ch := c.ms.Chains[chain]
	if ch.Pair.Failed() {
		return fmt.Errorf("admission: retarget target chain %q has itself failed", ch.Spec.Name)
	}
	if c.plan != nil && !c.chain().Pair.Failed() {
		return fmt.Errorf("admission: transition in flight on a live pair")
	}
	snaps := ch.Pair.Snapshot()
	slotByName := make(map[string]int, len(snaps))
	for i, sn := range snaps {
		slotByName[sn.Name] = i
	}
	// Validate every mapping before mutating anything.
	newSlots := make([]int, len(c.model.Streams))
	for i := range c.model.Streams {
		slot, ok := slotByName[c.model.Streams[i].Name]
		if !ok {
			return fmt.Errorf("admission: stream %q missing on chain %q", c.model.Streams[i].Name, ch.Spec.Name)
		}
		newSlots[i] = slot
	}
	// Sorted iteration: with several parked streams missing, which one the
	// error names must not depend on map order (the message reaches the
	// campaign's deterministic output).
	parkedNames := make([]string, 0, len(c.parked))
	for name := range c.parked {
		parkedNames = append(parkedNames, name)
	}
	sort.Strings(parkedNames)
	for _, name := range parkedNames {
		if _, ok := slotByName[name]; !ok {
			return fmt.Errorf("admission: parked stream %q missing on chain %q", name, ch.Spec.Name)
		}
	}
	for i := range c.model.Streams {
		c.model.Streams[i].Block = snaps[newSlots[i]].Block
	}
	for _, name := range parkedNames {
		p := c.parked[name]
		p.slot = slotByName[name]
		c.parked[name] = p
	}
	c.model.Chain = ch.Spec.Timing()
	c.gwSlot = newSlots
	c.ci = chain
	c.pendingCanary = nil // a probe cannot survive its pair
	c.end()
	c.gen++
	ch.Pair.SetQuarantineObserver(c.onQuarantine)
	ch.Pair.SetCanaryHook(c.onCanary)
	c.record(EvRetarget, ch.Spec.Name, nil)
	return nil
}
