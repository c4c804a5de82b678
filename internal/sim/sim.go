// Package sim is a deterministic discrete-event simulation kernel with a
// cycle-granular clock. It underpins the cycle-level MPSoC model (ring
// interconnect, tiles, gateways, accelerators) used to validate the paper's
// dataflow bounds against "hardware".
//
// Determinism: events at equal times fire in scheduling order (a strictly
// increasing sequence number breaks ties), no wall-clock time or randomness
// is involved anywhere, and components are single-threaded state machines —
// so every run of a given configuration produces the identical cycle-exact
// history, immune to Go's GC and scheduler (the repro band's main concern).
package sim

// Time is the simulation clock in cycles.
type Time = uint64

// The Kernel (clock + event scheduler) lives in kernel.go: a timing-wheel
// scheduler with pooled zero-alloc event records. kernel_ref_test.go keeps
// the original binary-heap scheduler as the reference implementation for
// the differential and fuzz harnesses.

// Waker coalesces wake-up requests for a component's step function: any
// number of Wake calls within one delta-cycle collapse into a single
// invocation of fn at the current time. Components subscribe a Waker to the
// queues they depend on, the classic "process network" DES pattern.
//
// Gating rule: a publisher wakes every subscriber on every change, but a
// component subscribes, for each input, the Waker it must take from that
// input — w itself when every change can let fn act, or an alias w.When(cond)
// when fn can act on the change only while cond holds (a tile needs its
// downstream credits only while it holds a refused word). cond is read at
// the publisher's change, after its state is updated, so it must be true
// whenever fn, run at that instant, could do anything: a dropped wake must
// be one that provably does nothing. Step functions stay idempotent, so a
// wake that passes a loose gate costs an event, never correctness.
type Waker struct {
	k       *Kernel
	fn      func()
	pending bool
	// tick is the coalesced wake-up closure, created once at construction:
	// Wake sits on every queue push/pop and must not allocate per call.
	tick func()
	// target and cond are set on an alias (When): Wake forwards to target
	// while cond holds.
	target *Waker
	cond   func() bool
}

// NewWaker binds a step function to the kernel.
func NewWaker(k *Kernel, fn func()) *Waker {
	w := &Waker{k: k, fn: fn}
	w.tick = func() {
		w.pending = false
		w.fn()
	}
	return w
}

// When returns an alias of w for one subscription: waking the alias wakes w
// while cond holds and does nothing otherwise. The alias shares w's pending
// tick, so wakes through any number of aliases and through w itself still
// coalesce into one invocation per delta-cycle.
func (w *Waker) When(cond func() bool) *Waker {
	return &Waker{target: w, cond: cond}
}

// Wake schedules the step function at the current time if not already
// scheduled; through an alias, only while the alias's condition holds.
//
//accellint:noalloc guard=TestWakerZeroAlloc
func (w *Waker) Wake() {
	for w.target != nil {
		if !w.cond() {
			return
		}
		w = w.target
	}
	if w.pending {
		return
	}
	w.pending = true
	w.k.Schedule(0, w.tick)
}

// Word is the unit of transport on the interconnect: 64 payload bits.
// Complex fixed-point samples pack I into the high and Q into the low half.
type Word uint64

// PackIQ packs two signed 32-bit components into a Word.
func PackIQ(i, q int32) Word {
	return Word(uint64(uint32(i))<<32 | uint64(uint32(q)))
}

// UnpackIQ splits a Word into its signed components.
func UnpackIQ(w Word) (i, q int32) {
	return int32(uint32(w >> 32)), int32(uint32(w))
}

// Queue is a bounded FIFO of words with subscriber wake-ups on both data
// arrival and space release. It is the building block for NI FIFOs, C-FIFO
// payload storage and gateway buffers.
type Queue struct {
	name     string
	capacity int
	buf      []Word
	head     int
	n        int
	onData   []*Waker
	onSpace  []*Waker
	// onPop, when set, runs inside every successful TryPop (OnPop).
	onPop func()

	// Pushed and Popped count total traffic for measurement.
	Pushed, Popped uint64
	// MaxOccupancy tracks the high-water mark.
	MaxOccupancy int
}

// NewQueue returns an empty queue with the given capacity (>= 1).
func NewQueue(name string, capacity int) *Queue {
	if capacity < 1 {
		panic("sim: queue capacity must be >= 1")
	}
	return NewQueueOn(name, make([]Word, capacity))
}

// NewQueueOn returns an empty queue built on buf: its capacity is len(buf)
// (>= 1), and whatever buf held before is ignored. Storage a retired queue
// handed back (Detach) serves the next one this way.
func NewQueueOn(name string, buf []Word) *Queue {
	if len(buf) < 1 {
		panic("sim: queue capacity must be >= 1")
	}
	return &Queue{name: name, capacity: len(buf), buf: buf}
}

// Detach empties the queue and hands its storage back for reuse. The
// queue keeps its capacity and counters but no storage: a later push
// panics instead of writing into storage that now serves another queue,
// and a pop finds the queue empty.
func (q *Queue) Detach() []Word {
	buf := q.buf
	q.buf, q.head, q.n = nil, 0, 0
	return buf
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Len returns the number of buffered words.
func (q *Queue) Len() int { return q.n }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.capacity }

// SubscribeData registers a waker invoked whenever a word is pushed.
func (q *Queue) SubscribeData(w *Waker) { q.onData = append(q.onData, w) }

// SubscribeSpace registers a waker invoked whenever a word is popped.
func (q *Queue) SubscribeSpace(w *Waker) { q.onSpace = append(q.onSpace, w) }

// OnPop makes fn run inside every successful TryPop, after the word is
// removed and before space subscribers wake: the hook a credit-controlled
// link returns the consumer's credit through, with no wake of its own. A
// queue has one hook; a later call replaces it.
func (q *Queue) OnPop(fn func()) { q.onPop = fn }

// TryPush appends a word, reporting false when full.
//
//accellint:noalloc guard=TestQueueZeroAlloc
func (q *Queue) TryPush(v Word) bool {
	if q.n == q.capacity {
		return false
	}
	q.buf[(q.head+q.n)%q.capacity] = v
	q.n++
	q.Pushed++
	if q.n > q.MaxOccupancy {
		q.MaxOccupancy = q.n
	}
	for _, w := range q.onData {
		w.Wake()
	}
	return true
}

// TryPop removes the oldest word, reporting false when empty.
//
//accellint:noalloc guard=TestQueueZeroAlloc
func (q *Queue) TryPop() (Word, bool) {
	if q.n == 0 {
		return 0, false
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % q.capacity
	q.n--
	q.Popped++
	if q.onPop != nil {
		q.onPop()
	}
	for _, w := range q.onSpace {
		w.Wake()
	}
	return v, true
}

// Clear discards every buffered word without waking subscribers or touching
// the Pushed/Popped counters — the queue simply forgets its contents. It
// models a hardware flush (gateway fault recovery): the discarded words were
// never consumed, so no space-release or credit activity must follow.
func (q *Queue) Clear() {
	q.head = 0
	q.n = 0
}
