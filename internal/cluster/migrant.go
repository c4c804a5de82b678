package cluster

// One migrant placement loop. Evacuation (rung 2) and rebalancing both move
// an exported stream onto another chain: the target's AdmitMigrated
// re-solves with the replay-residue floor and imports inside its paused
// transition, every busy round backs off on the simulation clock with the
// delay charged to the composed bound, and a stream no target admits sheds
// (rung 3). The admission attempts below are shared with arrivals,
// departures and readmission, which keep their own retry policies.

import (
	"fmt"
	"math/big"

	"accelshare/internal/admission"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// composed is the composed bound of one evacuation or rebalance move
// (DESIGN §8.1, §13): the measured cost runs from since, and bound
// accumulates the settle, every accepted transition's envelope and every
// charged backoff delay.
type composed struct {
	from  *chainInfo
	since sim.Time
	bound uint64
}

// migrant is one exported stream on its way to a new chain: an evacuee of
// a failed chain (ev set; an evacuation's evacuees share its bound) or a
// rebalance victim (op set).
type migrant struct {
	si *streamInfo
	st *mpsoc.Stream
	e  gateway.StreamExport
	ev *evacuation
	op *moveOp
}

func (m *migrant) leg() *composed {
	if m.op != nil {
		return &m.op.composed
	}
	return &m.ev.composed
}

// label names m's placement in retry logs.
func (m *migrant) label() string {
	if m.op != nil {
		return "rebalance admit"
	}
	return "migration"
}

// attemptKind names what an attempt's verdict continues.
type attemptKind uint8

const (
	placing     attemptKind = iota // an arrival's placement: placed
	departing                      // a departure: departed or departRefused
	migrating                      // a migrant's admission: migrated or a backoff
	readmitting                    // a parked stream's readmission: readmitted
)

// attempt is one admission request for a stream on one chain: a
// placement, departure, migration or readmission. Attempts are pooled on
// the controller (an intrusive free list), as the kernel pools its events
// and the ring its flights, and each record's verdict and import callbacks
// are bound once, when it is made. A synchronous refusal recycles the
// record at once. Otherwise the staged transition is pending, and its
// verdict recycles the record and continues the attempt it belongs to,
// even when it lands late from a chain that died.
type attempt struct {
	c    *Controller
	kind attemptKind
	si   *streamInfo
	tc   *chainInfo
	n    int      // the retry attempt
	m    *migrant // set for migrating
	// done is a.verdict and adopt is a.adoptStream.
	done  func(admission.Verdict)
	adopt func() (int, error)
	// refused marks a synchronous refusal (in Controller.refusal); pending
	// marks a request the chain took.
	refused, pending bool
	next             *attempt
}

// newAttempt takes an attempt record from the pool, growing it only at the
// high-water mark of attempts in flight.
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) newAttempt(kind attemptKind, si *streamInfo, tc *chainInfo, n int) *attempt {
	a := c.attempts
	if a != nil {
		c.attempts = a.next
	} else {
		//accellint:alloc pool growth to the attempts-in-flight high-water mark
		a = &attempt{c: c}
		//accellint:alloc method value bound once per pooled record
		a.done = a.verdict
		//accellint:alloc method value bound once per pooled record
		a.adopt = a.adoptStream
	}
	a.kind, a.si, a.tc, a.n = kind, si, tc, n
	return a
}

// recycle clears a and returns it to the pool.
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) recycle(a *attempt) {
	*a = attempt{c: c, done: a.done, adopt: a.adopt, next: c.attempts}
	c.attempts = a
}

// offered resolves attempt a once its chain has been handed the request,
// with a.done as the verdict callback. A synchronous refusal comes back as
// (verdict, false) and a is recycled. Otherwise the staged transition is
// pending: a.si is in flight on a.tc until the verdict reaches a.
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) offered(a *attempt) (admission.Verdict, bool) {
	if a.refused {
		c.recycle(a)
		return c.refusal, false
	}
	a.pending = true
	a.si.inflight, a.si.pendingOn = true, a.tc.pos
	return admission.Verdict{}, true
}

// verdict is every attempt's verdict callback. Before the request is
// pending a verdict is a synchronous refusal, which offered hands back;
// after, it recycles the record and continues the attempt.
func (a *attempt) verdict(v admission.Verdict) {
	c := a.c
	if !a.pending {
		c.refusal, a.refused = v, true
		return
	}
	kind, si, tc, n, m := a.kind, a.si, a.tc, a.n, a.m
	c.recycle(a)
	si.inflight = false
	switch kind {
	case placing:
		c.placed(si, tc, n, v)
	case departing:
		si.departing = false
		if v.Accepted {
			c.departed(si, tc, v)
		} else {
			c.departRefused(si, tc, n, v)
		}
	case migrating:
		if v.Accepted {
			c.migrated(m, tc, v)
			return
		}
		// Superseded mid-drain: the export is still ours.
		c.backOffMigrant(m, n, fmt.Sprintf("%s superseded on %s;", m.label(), tc.name))
	case readmitting:
		c.readmitted(si, tc, n, v)
	}
}

// adoptStream imports the attempt's exported stream onto its chain, the
// Import step of a migration (the migrant's export) or a readmission (the
// parked stream's).
func (a *attempt) adoptStream() (int, error) {
	if a.m != nil {
		return a.c.ms.AdoptStream(a.tc.idx, a.m.st, a.m.e)
	}
	return a.c.ms.AdoptStream(a.tc.idx, a.si.st, a.si.export)
}

// migrateRequest is the migration admission request for si's exported
// stream st; each attempt supplies its Import step (see offerMigrant).
func (c *Controller) migrateRequest(si *streamInfo, st *mpsoc.Stream, e gateway.StreamExport) admission.MigrateRequest {
	return admission.MigrateRequest{
		Name:        si.name,
		Rate:        big.NewRat(1, si.period),
		Reconfig:    uint64(c.cfg.Reconfig),
		Decimation:  1,
		MinBlock:    minBlockOf(e, 1),
		InCapacity:  st.In.Capacity(),
		OutCapacity: st.Out.Capacity(),
	}
}

// offerMigrant offers a migrating or readmitting attempt's stream to its
// chain through the target's migration admission (see offered).
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) offerMigrant(a *attempt, req admission.MigrateRequest) (admission.Verdict, bool) {
	req.Import = a.adopt
	a.tc.ctrl.AdmitMigrated(req, a.done)
	return c.offered(a)
}

func minBlockOf(e gateway.StreamExport, decimation int64) int64 {
	mb := e.ReplayStart + int64(len(e.Replay))
	if cb := e.Committed * decimation; cb > mb {
		mb = cb
	}
	return mb
}

// retry schedules again(attempt+1) after attempt's backoff delay and logs
// why; false when the retry budget is spent.
func (c *Controller) retry(si *streamInfo, attempt int, why string, again func(next int)) (sim.Time, bool) {
	d, ok := c.cfg.Retry.Delay(attempt)
	if !ok {
		return 0, false
	}
	c.event(EvRetry, "", si.name, fmt.Sprintf("%s backs off %d cycles", why, d))
	c.k.Schedule(d, func() { again(attempt + 1) })
	return d, true
}

// settle is the interconnect settle before a migrant is exported: the
// chains' flush settle, their drain timeout, clamped to the source model's
// max τ̂s(K) — one worst-case block attempt bounds what is in flight — and
// at least one cycle.
func (c *Controller) settle(maxTau uint64) sim.Time {
	settle := c.cfg.DrainTimeout
	if maxTau > 0 && settle > sim.Time(maxTau) {
		settle = sim.Time(maxTau)
	}
	return max(settle, 1)
}

// placeMigrant offers m to its planned target first (a rebalance move's),
// then to every serving chain coldest-first. A round in which a target was
// busy backs off, and so does an admit superseded mid-drain; each delay is
// charged to the composed bound. When no target was busy, or the retry
// budget is spent, the stream sheds.
func (c *Controller) placeMigrant(m *migrant, attempt int) {
	if m.si.departed {
		if m.op != nil {
			c.finishMoveAborted(m.op, "departed in transit")
		} else {
			c.nextMigrant(m)
		}
		return
	}
	var targets []*chainInfo
	if m.op != nil && m.op.to.state == chainServing && m.op.to.ctrl != nil {
		targets = append(targets, m.op.to)
	}
	for _, tc := range c.rankServing() {
		if m.op == nil || tc != m.op.to {
			targets = append(targets, tc)
		}
	}
	busy := false
	req := c.migrateRequest(m.si, m.st, m.e)
	for _, tc := range targets {
		a := c.newAttempt(migrating, m.si, tc, attempt)
		a.m = m
		v, pending := c.offerMigrant(a, req)
		if pending {
			return
		}
		busy = busy || v.Reason == admission.ReasonBusy
	}
	if busy {
		c.backOffMigrant(m, attempt, fmt.Sprintf("%s attempt %d", m.label(), attempt+1))
		return
	}
	c.shedMigrant(m)
}

// backOffMigrant retries m's placement after attempt's backoff delay,
// charging the wait to the composed bound, or sheds m once the retry
// budget is spent.
func (c *Controller) backOffMigrant(m *migrant, attempt int, why string) {
	d, ok := c.retry(m.si, attempt, why, func(next int) { c.placeMigrant(m, next) })
	if !ok {
		c.shedMigrant(m)
		return
	}
	m.leg().bound += uint64(d)
}

// migrated lands m on chain tc: the composed bound gains the target's
// transition envelope, and the ladder records the step against it.
func (c *Controller) migrated(m *migrant, tc *chainInfo, v admission.Verdict) {
	si, leg := m.si, m.leg()
	si.chain = tc.pos
	if m.op != nil {
		// RemoveStream stopped the victim's source on the old chain.
		si.moving, si.shed, si.hasExport = false, false, false
		si.moves++
		c.ms.StartSource(si.st)
	}
	leg.bound += v.BoundCycles
	measured := uint64(c.k.Now() - leg.since)
	rung, kind, from := "evacuate", EvMigrated, ""
	if m.op != nil {
		rung, kind, from = "rebalance", EvRebalanced, "from "+leg.from.name+" "
	} else {
		m.ev.migrated++
	}
	c.ladder = append(c.ladder, LadderStep{
		At: c.k.Now(), Stream: si.name, Rung: rung,
		From: leg.from.name, To: tc.name,
		Measured: measured, Bound: leg.bound, Replay: len(m.e.Replay),
	})
	c.event(kind, tc.name, si.name, fmt.Sprintf("%seta=%d measured=%d bound=%d replay=%d",
		from, lastBlock(v), measured, leg.bound, len(m.e.Replay)))
	c.departIfDeferred(si)
	c.nextMigrant(m)
}

// shedMigrant is rung 3 for a migrant no target admits: park the stream
// (source stopped, exported state retained) and probe for readmission
// under the backoff schedule; a heal re-kicks parked streams with a fresh
// budget. A departure deferred while the stream was in transit is honoured
// instead: the stream departs.
func (c *Controller) shedMigrant(m *migrant) {
	si, leg := m.si, m.leg()
	path, why := "evacuation", "no capacity on any serving chain"
	if m.op != nil {
		path, why = "rebalance", "rebalance found no target"
		si.moving, si.inflight = false, false
	}
	if si.deferDepart {
		si.deferDepart = false
		si.departed = true
		c.event(EvDepart, "", si.name, "departed during "+path)
		c.nextMigrant(m)
		return
	}
	si.shed = true
	si.chain = -1
	si.st, si.export, si.hasExport = m.st, m.e, true
	si.st.StopSource()
	if m.ev != nil {
		m.ev.shed++
	}
	measured := uint64(c.k.Now() - leg.since)
	c.ladder = append(c.ladder, LadderStep{
		At: c.k.Now(), Stream: si.name, Rung: "shed",
		From: leg.from.name, To: "",
		Measured: measured, Bound: leg.bound, Replay: len(m.e.Replay),
	})
	c.event(EvShed, "", si.name, fmt.Sprintf("%s; parked (measured=%d bound=%d)", why, measured, leg.bound))
	c.scheduleReadmit(si, 0)
	c.nextMigrant(m)
}

// nextMigrant hands control back to m's path: the evacuation's next
// evacuee, or the rebalancer's next planned move.
func (c *Controller) nextMigrant(m *migrant) {
	if m.op != nil {
		c.nextMove()
		return
	}
	m.ev.queue = m.ev.queue[1:]
	c.evacNext(m.ev)
}

// departIfDeferred re-issues a departure that arrived while si was between
// chains, now that it has landed.
func (c *Controller) departIfDeferred(si *streamInfo) {
	if si.deferDepart {
		si.deferDepart = false
		c.depart(si, 0)
	}
}
