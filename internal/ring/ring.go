// Package ring models the low-cost guaranteed-throughput dual-ring
// interconnect of Dekens et al. (DASIP'13/'14) that the paper's
// architecture is built on: a unidirectional slotted data ring carrying
// posted writes, plus a second ring rotating in the opposite direction that
// carries flow-control credits for hardware-FIFO communication.
//
// The model is transaction-level but cycle-accounted: each node may inject
// at most one word per cycle (one slot), and a word addressed to a tile d
// hops away is delivered exactly d·hopLatency cycles after injection. Posted
// writes complete for the producer upon acceptance by the interconnect;
// delivery is lossless and the destination always accepts (the "guaranteed
// acceptance" property the paper relies on to avoid hardware flow control
// toward memories).
package ring

import (
	"fmt"

	"accelshare/internal/sim"
)

// Direction of rotation. The data ring rotates clockwise and the credit
// ring counter-clockwise, as in the paper's Fig. 1.
type Direction int

// Rotation directions.
const (
	Clockwise Direction = iota
	CounterClockwise
)

// Config parameterises a ring.
type Config struct {
	// Nodes is the number of tile attachment points.
	Nodes int
	// HopLatency is the cycles one word needs to advance one node.
	HopLatency sim.Time
	// InjectionDepth is the per-node injection buffer in words.
	InjectionDepth int
	Direction      Direction
}

// Message is one word on its way from node Src to the binding H on node
// Dst.
type Message struct {
	Src, Dst int
	H        Handle
	W        sim.Word
}

// Handle names one delivery binding: a destination node and its handler,
// set when the binding's C-FIFO, link or gateway is wired. A C-FIFO
// endpoint that moves takes its binding along (Transport.Move), and one
// that retires releases it (Transport.Release). Bind issues handles 1, 2, …
// per transport, never the same one twice, and a handle is valid only on
// the transport that issued it. The zero Handle is never issued.
type Handle int

// Port is one tile attachment point of an interconnect, the interface the
// platform components (links, C-FIFOs, gateways) are written against.
type Port interface {
	// TrySend posts a word to the binding h; false = injection buffer full.
	// It panics on a handle the transport never issued.
	TrySend(h Handle, w sim.Word) bool
	// Bind registers a delivery handler on this node and returns the handle
	// senders address it by.
	Bind(fn func(Message)) Handle
	// SubscribeSpace wakes w when injection space frees.
	SubscribeSpace(w *sim.Waker)
}

// binding is one slab entry: the node a handle's words go to and the
// handler that takes them there.
type binding struct {
	dst int
	fn  func(Message)
}

// bindings is a transport's slab. Handle h names entry h-1, so Go's bounds
// check rejects the zero Handle and every handle the slab never issued.
type bindings []binding

// add appends a binding and returns its handle. The slab only grows, so a
// released handle is never issued again: a late word for a retired binding
// cannot reach a new one.
func (b *bindings) add(dst int, fn func(Message)) Handle {
	*b = append(*b, binding{dst: dst, fn: fn})
	return Handle(len(*b))
}

// discard is the handler of every released binding.
func discard(Message) {}

// Transport is an interconnect of attachment points: implemented by the
// transaction-level Ring, and in this package's tests by the cycle-true
// Slotted ring, so the whole platform can run on either.
type Transport interface {
	Node(i int) Port
	// DeliveredWords counts words the transport has delivered. A word is
	// counted when it reaches its destination node, not when it leaves its
	// source, so a word still in flight, or one a wedge took back, is not.
	DeliveredWords() uint64
	// Move points the binding h at node: words sent to h from now on go
	// there. A word carries its destination from the send, so one already
	// sent still lands at the old node, and the same handler takes it.
	Move(h Handle, node int)
	// Release retires the binding h: the slab entry drops its handler. A
	// word still in flight to h, or sent to it later, is carried and
	// counted as before, and discarded on delivery.
	Release(h Handle)
}

// Ring is one unidirectional slotted ring.
type Ring struct {
	cfg   Config
	k     *sim.Kernel
	nodes []*Node

	// Words counts delivered messages; HopCycles accumulates their ring
	// latency for utilisation accounting. Both count on delivery.
	Words     uint64
	HopCycles uint64

	// freeFlight is the pool of recycled in-flight message records; binds
	// is the slab Bind fills and TrySend and deliver index.
	freeFlight *flight
	binds      bindings
}

// Node is one attachment point with an injection buffer.
type Node struct {
	r   *Ring
	idx int
	// inj is a circular injection buffer sized lazily to InjectionDepth on
	// the first send; head-index draining (not re-slicing) keeps the
	// steady-state send path allocation-free.
	inj      []Message
	injHead  int
	injLen   int
	nextSlot sim.Time
	space    []*sim.Waker
	pumping  bool
	// pumpFn is the pump step bound once, so per-slot scheduling reuses one
	// closure instead of allocating a new one per pumped word.
	pumpFn func()

	// sent is the word that left inside TrySend without a pump step, and
	// step the place that step would have fired at. Until step passes, the
	// word still occupies the injection buffer (held); prevSlot is the slot
	// time before it left, restored when a wedge takes the word back.
	sent     *flight
	step     sim.Place
	prevSlot sim.Time

	// wedgedUntil, when in the future, freezes the node's injection side:
	// TrySend refuses and buffered messages stop advancing — the injected
	// "wedged NI" fault of the fault-campaign subsystem.
	wedgedUntil sim.Time
	// WedgeRejects counts sends refused while wedged.
	WedgeRejects uint64
}

// New builds a ring on the kernel.
func New(k *sim.Kernel, cfg Config) (*Ring, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("ring: need at least one node")
	}
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 1
	}
	if cfg.InjectionDepth == 0 {
		cfg.InjectionDepth = 4
	}
	r := &Ring{cfg: cfg, k: k}
	for i := 0; i < cfg.Nodes; i++ {
		r.nodes = append(r.nodes, &Node{r: r, idx: i})
	}
	return r, nil
}

// Node returns attachment point i.
func (r *Ring) Node(i int) Port { return r.nodes[i] }

// DeliveredWords counts delivered words (Transport interface).
func (r *Ring) DeliveredWords() uint64 { return r.Words }

// Nodes returns the node count.
func (r *Ring) Nodes() int { return r.cfg.Nodes }

// Move points the binding h at node (Transport interface).
func (r *Ring) Move(h Handle, node int) { r.binds[h-1].dst = r.nodes[node].idx }

// Release retires the binding h (Transport interface).
func (r *Ring) Release(h Handle) { r.binds[h-1].fn = discard }

// Distance returns the hop count from src to dst in this ring's rotation
// direction.
func (r *Ring) Distance(src, dst int) int {
	n := r.cfg.Nodes
	var d int
	if r.cfg.Direction == Clockwise {
		d = (dst - src) % n
	} else {
		d = (src - dst) % n
	}
	if d < 0 {
		d += n
	}
	if d == 0 && src != dst {
		d = n
	}
	return d
}

// Bind registers a delivery handler on this node and returns its handle.
// Handlers must always accept (guaranteed acceptance).
func (n *Node) Bind(fn func(Message)) Handle { return n.r.binds.add(n.idx, fn) }

// SubscribeSpace wakes w whenever injection space frees up.
func (n *Node) SubscribeSpace(w *sim.Waker) { n.space = append(n.space, w) }

// WedgeNode freezes node i's injection side for d cycles (d == 0 =
// permanently): sends are refused and already-buffered messages stop
// advancing, modelling a wedged network interface. Messages already on the
// ring still arrive. When the wedge lifts, space subscribers are woken and
// the injection buffer resumes draining.
func (r *Ring) WedgeNode(i int, d sim.Time) {
	n := r.nodes[i]
	if n.held() == 1 {
		n.takeBack()
	}
	if d == 0 {
		n.wedgedUntil = ^sim.Time(0)
		return
	}
	n.wedgedUntil = r.k.Now() + d
	r.k.Schedule(d, func() {
		for _, w := range n.space {
			w.Wake()
		}
		n.pump()
	})
}

// wedged reports whether the node's injection side is frozen.
func (n *Node) wedged() bool { return n.wedgedUntil > n.r.k.Now() }

// TrySend posts a write of word w to the binding h. It reports false when
// the injection buffer is full — the caller retries on a space wake-up. A
// successful TrySend is a completed posted write from the producer's
// perspective.
//
// A word sent while the buffer is empty and the slot free leaves at once:
// its delivery is scheduled here and its pump step is skipped. The node
// reserves the step's place and the word keeps its buffer slot until that
// place passes (held). Anything that would have seen the step before its
// turn puts it back there (restep): a second word buffered behind it, or a
// refused send or a Free reading, whose caller the step's space wake must
// reach.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (n *Node) TrySend(h Handle, w sim.Word) bool {
	dst := n.r.binds[h-1].dst
	if n.wedged() {
		n.WedgeRejects++
		return false
	}
	held := n.held()
	if n.injLen+held >= n.r.cfg.InjectionDepth {
		if held == 1 {
			n.restep()
		}
		return false
	}
	if n.inj == nil {
		//accellint:alloc first-send lazy sizing of the injection ring
		n.inj = make([]Message, n.r.cfg.InjectionDepth)
		//accellint:alloc method value bound once, reused every slot
		n.pumpFn = n.pumpStep
	}
	k := n.r.k
	m := Message{Src: n.idx, Dst: dst, H: h, W: w}
	if n.injLen == 0 && !n.pumping && n.nextSlot <= k.Now() {
		// No word is held here: a held word's slot runs past now.
		n.step = k.Reserve()
		n.prevSlot = n.nextSlot
		n.sent = n.emit(m)
		return true
	}
	n.inj[(n.injHead+n.injLen)%len(n.inj)] = m
	n.injLen++
	if held == 1 {
		n.restep()
	}
	n.pump()
	return true
}

// held reports 1 while the word that left inside TrySend still occupies
// the injection buffer — its skipped step's place is ahead — and 0 after.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (n *Node) held() int {
	if n.sent == nil {
		return 0
	}
	if !n.r.k.Ahead(n.step) {
		n.sent = nil
		return 0
	}
	return 1
}

// restep puts the skipped pump step back at its reserved place; pumpStep
// then finds sent set and only wakes and re-pumps, as the skipped step
// would have after emitting the word.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (n *Node) restep() {
	if !n.pumping {
		n.pumping = true
		n.r.k.ScheduleAtPlace(n.step, n.pumpFn)
	}
}

// takeBack returns a held word to the head of the injection buffer and
// cancels its delivery: a wedge landing before the skipped step's place
// freezes the word, as it froze it in the buffer before the step.
func (n *Node) takeBack() {
	fl := n.sent
	n.sent = nil
	fl.cancelled = true
	n.injHead = (n.injHead + len(n.inj) - 1) % len(n.inj)
	n.inj[n.injHead] = fl.m
	n.injLen++
	n.nextSlot = n.prevSlot
}

// pump drains the injection buffer at the slot rate.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (n *Node) pump() {
	if n.pumping || n.injLen == 0 {
		return
	}
	k := n.r.k
	start := k.Now()
	if n.nextSlot > start {
		start = n.nextSlot
	}
	n.pumping = true
	k.ScheduleAt(start, n.pumpFn)
}

// pumpStep emits one buffered message onto the ring — or, put back at the
// place of a word that already left, finishes that word's step — and space
// subscribers learn of the freed slot.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (n *Node) pumpStep() {
	n.pumping = false
	if n.sent != nil {
		n.sent = nil
	} else {
		if n.injLen == 0 || n.wedged() {
			// A wedged node's buffered messages stay frozen; the wedge-lift
			// event restarts the pump.
			return
		}
		m := n.inj[n.injHead]
		n.injHead = (n.injHead + 1) % len(n.inj)
		n.injLen--
		n.emit(m)
	}
	for _, w := range n.space {
		w.Wake()
	}
	n.pump()
}

// emit puts m on the ring now: it takes the node's slot for one cycle,
// and a pooled flight record carries it to its destination after the hop
// latency.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (n *Node) emit(m Message) *flight {
	k := n.r.k
	n.nextSlot = k.Now() + 1
	fl := n.r.newFlight()
	fl.m = m
	fl.lat = sim.Time(n.r.Distance(m.Src, m.Dst)) * n.r.cfg.HopLatency
	k.Schedule(fl.lat, fl.fn)
	return fl
}

// flight is one in-flight message record. Records are pooled on the ring
// (intrusive free list) and each carries its delivery closure, created once
// at pool-entry time — so the per-message delivery path allocates nothing
// in steady state, matching the pooled event records of the sim kernel.
type flight struct {
	r   *Ring
	m   Message
	lat sim.Time // the cycles m spends on the ring
	fn  func()
	// cancelled marks a word a wedge took back: its delivery event only
	// returns the record to the pool.
	cancelled bool
	next      *flight
}

// newFlight takes a flight record from the pool, growing it only at the
// high-water mark.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (r *Ring) newFlight() *flight {
	if fl := r.freeFlight; fl != nil {
		r.freeFlight = fl.next
		fl.next = nil
		return fl
	}
	//accellint:alloc pool growth to the in-flight high-water mark
	fl := &flight{r: r}
	//accellint:alloc method value bound once per pooled record
	fl.fn = fl.deliver
	return fl
}

// deliver counts the message, hands it to its binding's handler and
// returns the record to the pool. Recycling happens before the handler
// runs so a handler that immediately sends again can reuse this record.
//
//accellint:noalloc guard=TestRingZeroAllocSteadyState
func (fl *flight) deliver() {
	r, m, lat, cancelled := fl.r, fl.m, fl.lat, fl.cancelled
	fl.cancelled = false
	fl.next = r.freeFlight
	r.freeFlight = fl
	if cancelled {
		return
	}
	r.Words++
	r.HopCycles += uint64(lat)
	r.binds[m.H-1].fn(m)
}

// Dual couples a clockwise data ring with a counter-clockwise credit ring,
// the architecture's interconnect. The members are Transport so that the
// ring tests can back them with the cycle-true slotted model.
type Dual struct {
	Data   Transport
	Credit Transport
}

// NewDual builds the two rings with shared geometry.
func NewDual(k *sim.Kernel, nodes int, hopLatency sim.Time) (*Dual, error) {
	d, err := New(k, Config{Nodes: nodes, HopLatency: hopLatency, Direction: Clockwise})
	if err != nil {
		return nil, err
	}
	c, err := New(k, Config{Nodes: nodes, HopLatency: hopLatency, Direction: CounterClockwise})
	if err != nil {
		return nil, err
	}
	return &Dual{Data: d, Credit: c}, nil
}
