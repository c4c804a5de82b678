package accel

import (
	"fmt"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// Link is a hardware-FIFO connection over the dual ring with credit-based
// flow control (paper §IV-A/B): data words travel the data ring from the
// upstream tile to the downstream NI queue, and one credit travels the
// credit ring in the opposite direction for every word the downstream
// consumer removes. The sender may only inject while it holds credits, so
// the downstream queue can never overflow.
type Link struct {
	name    string
	k       *sim.Kernel
	net     *ring.Dual
	srcNode int
	dstNode int
	// dataH is the downstream NI's data-ring binding, creditH the sender's
	// credit-ring binding.
	dataH, creditH ring.Handle

	credits    int
	dst        *sim.Queue
	creditSubs []*sim.Waker

	// owedCredits counts consumer pops not yet converted into credit
	// messages (e.g. because the credit-ring injection buffer was full).
	owedCredits int
	creditPump  bool
	// creditRetryFn is retryCredits, bound once in NewLink.
	creditRetryFn func()

	// wedgedUntil, when in the future, makes TrySend fail — the injected
	// "wedged link/NI" fault of the fault-campaign subsystem.
	wedgedUntil sim.Time

	// Words counts data words carried; WedgeRejects counts sends refused
	// while wedged.
	Words        uint64
	WedgeRejects uint64
}

// NewLink wires a credit-controlled connection and binds its two ring
// endpoints. The downstream queue's capacity determines the initial credit
// count (the paper's NI FIFOs hold two tokens).
func NewLink(name string, k *sim.Kernel, net *ring.Dual, srcNode, dstNode int, dst *sim.Queue) *Link {
	l := &Link{
		name: name, k: k, net: net,
		srcNode: srcNode, dstNode: dstNode,
		credits: dst.Cap(), dst: dst,
	}
	// Data arriving at the downstream NI: guaranteed to fit because the
	// sender spent a credit.
	l.dataH = net.Data.Node(dstNode).Bind(func(m ring.Message) {
		if !l.dst.TryPush(m.W) {
			panic(fmt.Sprintf("accel: link %q overflowed NI queue — credit protocol violated", l.name))
		}
	})
	// Credits arriving back at the sender.
	l.creditH = net.Credit.Node(srcNode).Bind(func(m ring.Message) {
		l.credits += int(m.W)
		for _, w := range l.creditSubs {
			w.Wake()
		}
	})
	// Every pop from the NI queue owes one credit upstream, sent inside the
	// pop.
	dst.OnPop(l.returnCredit)
	l.creditRetryFn = l.retryCredits
	return l
}

// returnCredit owes the upstream sender one credit for the word the
// consumer just removed, and sends what is owed.
//
//accellint:noalloc guard=TestDataPathZeroAllocPAL
func (l *Link) returnCredit() {
	l.owedCredits++
	l.pumpCredits()
}

// pumpCredits sends owed credits over the credit ring, retrying while the
// injection buffer is busy.
//
//accellint:noalloc guard=TestDataPathZeroAllocPAL
func (l *Link) pumpCredits() {
	for l.owedCredits > 0 {
		if !l.net.Credit.Node(l.dstNode).TrySend(l.creditH, 1) {
			if !l.creditPump {
				l.creditPump = true
				l.k.Schedule(2, l.creditRetryFn)
			}
			return
		}
		l.owedCredits--
	}
}

// retryCredits resumes the credit pump after a ring-busy rejection.
func (l *Link) retryCredits() {
	l.creditPump = false
	l.pumpCredits()
}

// SubscribeCredits wakes w whenever credits return.
func (l *Link) SubscribeCredits(w *sim.Waker) { l.creditSubs = append(l.creditSubs, w) }

// WedgeFor makes TrySend fail for the next d cycles — deterministic fault
// injection modelling a wedged NI or broken ring segment. d == 0 wedges the
// link permanently. When the wedge lifts, credit subscribers are woken so
// stalled senders retry.
func (l *Link) WedgeFor(d sim.Time) {
	if d == 0 {
		l.wedgedUntil = ^sim.Time(0)
		return
	}
	l.wedgedUntil = l.k.Now() + d
	l.k.Schedule(d, func() {
		for _, w := range l.creditSubs {
			w.Wake()
		}
	})
}

// Wedged reports whether the link currently refuses sends.
func (l *Link) Wedged() bool { return l.wedgedUntil > l.k.Now() }

// Reset restores the link to its initial flow-control state after a chain
// flush: full credits, nothing owed. The caller must already have cleared
// the downstream queue; any credit messages still in flight must have landed
// (the gateway's flush settle delay guarantees both).
func (l *Link) Reset() {
	l.credits = l.dst.Cap()
	l.owedCredits = 0
}

// TrySend injects one word if a credit is held and the ring accepts; the
// caller retries on a credit or ring-space wake-up otherwise.
func (l *Link) TrySend(w sim.Word) bool {
	if l.Wedged() {
		l.WedgeRejects++
		return false
	}
	if l.credits <= 0 {
		return false
	}
	if !l.net.Data.Node(l.srcNode).TrySend(l.dataH, w) {
		return false
	}
	l.credits--
	l.Words++
	return true
}

// SubscribeRingSpace wakes w when the sender's ring injection buffer drains.
func (l *Link) SubscribeRingSpace(w *sim.Waker) {
	l.net.Data.Node(l.srcNode).SubscribeSpace(w)
}
