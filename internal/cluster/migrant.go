package cluster

// One migrant placement loop. Evacuation (rung 2) and rebalancing both move
// an exported stream onto another chain through the target's AdmitMigrated;
// every busy round backs off with the delay charged to the composed bound,
// and a stream no target admits sheds (rung 3). The admission attempts
// below serve arrivals, departures and readmission too.

import (
	"fmt"

	"accelshare/internal/admission"
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

// migrant is the path of one exported stream on its way to a new chain:
// an evacuee of a failed chain (ev set; an evacuation's evacuees share its
// bound) or a rebalance victim (op set); leg is its composed bound. The
// stream holds its export.
type migrant struct {
	si  *streamInfo
	ev  *evacuation
	op  *moveOp
	leg *composed
}

// label names m's placement in retry logs.
func (m *migrant) label() string {
	if m.op != nil {
		return "rebalance admit"
	}
	return "migration"
}

// path names m's path in lifecycle logs.
func (m *migrant) path() string {
	if m.op != nil {
		return "rebalance"
	}
	return "evacuation"
}

// attempt is one admission request for a stream on one chain. Attempts are
// pooled on the controller (an intrusive free list), as the kernel pools
// its events, and each record's verdict and import callbacks are bound
// once, when it is made. A synchronous refusal recycles the record at
// once; a pending request's verdict recycles it and continues whatever
// the stream's phase says.
type attempt struct {
	c  *Controller
	si *streamInfo
	tc *chainInfo
	n  int // the retry attempt
	// done is a.verdict.
	done func(admission.Verdict)
	// refused marks a synchronous refusal (in Controller.refusal); pending
	// marks a request the chain took.
	refused, pending bool
	next             *attempt
}

// newAttempt takes an attempt record from the pool, growing it only at the
// high-water mark of attempts in flight.
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) newAttempt(si *streamInfo, tc *chainInfo, n int) *attempt {
	a := c.attempts
	if a != nil {
		c.attempts = a.next
	} else {
		//accellint:alloc pool growth to the attempts-in-flight high-water mark
		a = &attempt{c: c}
		//accellint:alloc method value bound once per pooled record
		a.done = a.verdict
	}
	a.si, a.tc, a.n = si, tc, n
	return a
}

// recycle clears a and returns it to the pool.
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) recycle(a *attempt) {
	*a = attempt{c: c, done: a.done, next: c.attempts}
	c.attempts = a
}

// offered resolves attempt a once its chain has been handed the request,
// with a.done as the verdict callback. A synchronous refusal comes back as
// (verdict, false) and a is recycled. Otherwise the staged transition is
// pending: a.si takes transition t and waits on a.tc until the verdict
// reaches a.
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) offered(a *attempt, t transition) (admission.Verdict, bool) {
	if a.refused {
		c.recycle(a)
		return c.refusal, false
	}
	a.pending = true
	a.si.step(t, a.tc.pos)
	return admission.Verdict{}, true
}

// verdict is every attempt's verdict callback. Before the request is
// pending a verdict is a synchronous refusal, which offered hands back;
// after, it recycles the record and continues the stream's phase.
func (a *attempt) verdict(v admission.Verdict) {
	c := a.c
	if !a.pending {
		c.refusal, a.refused = v, true
		return
	}
	si, tc, n := a.si, a.tc, a.n
	c.recycle(a)
	if si.pendingOn != tc.pos {
		// Stale: tc died while the request was pending, and its death
		// re-routed the stream (reissuePending). The verdict is dropped.
		return
	}
	switch si.phase {
	case placing:
		c.placed(si, tc, n, v)
	case departing:
		if v.Accepted {
			c.departed(si, tc, v)
			return
		}
		si.step(endDepart, si.chain)
		c.departRefused(si, tc, n, v)
	case migrating:
		m := si.m
		if v.Accepted {
			c.migrated(m, tc, v)
			return
		}
		// Superseded mid-drain: the export is still ours.
		si.step(retract, -1)
		c.backOffMigrant(m, n, fmt.Sprintf("%s superseded on %s;", m.label(), tc.name))
	case readmitting:
		c.readmitted(si, tc, n, v)
	}
}

// offerMigrant offers a migrating or parked stream, with its export, to
// attempt a's chain through the target's migration admission; t is the
// transition a pending request takes (see offered).
//
//accellint:noalloc guard=TestRefusedAttemptZeroAlloc
func (c *Controller) offerMigrant(a *attempt, t transition) (admission.Verdict, bool) {
	a.tc.ctrl.AdmitMigrated(admission.MigrateRequest{Stream: a.si.st, Export: a.si.export}, a.done)
	return c.offered(a, t)
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
	for _, tc := range targets {
		v, pending := c.offerMigrant(c.newAttempt(m.si, tc, attempt), offerAdmit)
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
	m.leg.bound += uint64(d)
}

// migrated lands m on chain tc: the composed bound gains the target's
// transition envelope, and the ladder records the step against it.
func (c *Controller) migrated(m *migrant, tc *chainInfo, v admission.Verdict) {
	si, leg := m.si, m.leg
	si.step(land, tc.pos)
	if m.op != nil {
		// RemoveStream stopped the victim's source on the old chain.
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
		Measured: measured, Bound: leg.bound, Replay: len(si.export.Replay),
	})
	c.event(kind, tc.name, si.name, fmt.Sprintf("%seta=%d measured=%d bound=%d replay=%d",
		from, lastBlock(v), measured, leg.bound, len(si.export.Replay)))
	c.departIfDeferred(si)
	c.nextMigrant(m)
}

// shedMigrant is rung 3 for a migrant no target admits: park the stream
// (source stopped, exported state retained) and probe for readmission
// under the backoff schedule; a heal re-kicks parked streams with a fresh
// budget. A departure deferred while the stream was in transit is honoured
// instead: the stream departs.
func (c *Controller) shedMigrant(m *migrant) {
	si, leg := m.si, m.leg
	if si.deferDepart {
		si.deferDepart = false
		si.step(leave, -1)
		c.event(EvDepart, "", si.name, "departed during "+m.path())
		c.nextMigrant(m)
		return
	}
	why := "no capacity on any serving chain"
	if m.op != nil {
		why = "rebalance found no target"
	}
	si.step(park, -1)
	si.st.StopSource()
	if m.ev != nil {
		m.ev.shed++
	}
	measured := uint64(c.k.Now() - leg.since)
	c.ladder = append(c.ladder, LadderStep{
		At: c.k.Now(), Stream: si.name, Rung: "shed",
		From: leg.from.name, To: "",
		Measured: measured, Bound: leg.bound, Replay: len(si.export.Replay),
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
