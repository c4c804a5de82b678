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
// invocation of fn at the current time. Components subscribe their Waker to
// the queues they depend on and re-examine all state in fn (idempotent
// step functions), the classic "process network" DES pattern.
type Waker struct {
	k       *Kernel
	fn      func()
	pending bool
	// tick is the coalesced wake-up closure, created once at construction:
	// Wake sits on every queue push/pop and must not allocate per call.
	tick func()
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

// Wake schedules the step function at the current time if not already
// scheduled.
//
//accellint:noalloc guard=TestWakerZeroAlloc
func (w *Waker) Wake() {
	if w.pending {
		return
	}
	w.pending = true
	w.k.Schedule(0, w.tick)
}

// WakeAfter schedules the step function after a delay; unlike Wake it does
// not coalesce (a dedicated timer tick).
func (w *Waker) WakeAfter(d Time) {
	w.k.Schedule(d, w.fn)
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
	return &Queue{name: name, capacity: capacity, buf: make([]Word, capacity)}
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Len returns the number of buffered words.
func (q *Queue) Len() int { return q.n }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.capacity }

// Free returns the remaining space.
func (q *Queue) Free() int { return q.capacity - q.n }

// SubscribeData registers a waker invoked whenever a word is pushed.
func (q *Queue) SubscribeData(w *Waker) { q.onData = append(q.onData, w) }

// SubscribeSpace registers a waker invoked whenever a word is popped.
func (q *Queue) SubscribeSpace(w *Waker) { q.onSpace = append(q.onSpace, w) }

// TryPush appends a word, reporting false when full.
//
//accellint:noalloc guard=TestQueueZeroAllocBursts
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
//accellint:noalloc guard=TestQueueZeroAllocBursts
func (q *Queue) TryPop() (Word, bool) {
	if q.n == 0 {
		return 0, false
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % q.capacity
	q.n--
	q.Popped++
	for _, w := range q.onSpace {
		w.Wake()
	}
	return v, true
}

// PushBurst appends words until the queue fills, returning how many were
// accepted. Counters and subscriber wake-ups are identical to calling
// TryPush per word (wakers coalesce within the delta-cycle); the burst form
// lets block transport move a whole block in one component step.
//
//accellint:noalloc guard=TestQueueZeroAllocBursts
func (q *Queue) PushBurst(ws []Word) int {
	n := 0
	for _, v := range ws {
		if !q.TryPush(v) {
			break
		}
		n++
	}
	return n
}

// PopBurst fills dst with up to len(dst) words, returning the count popped.
// Identical per-word semantics to TryPop in a loop.
//
//accellint:noalloc guard=TestQueueZeroAllocBursts
func (q *Queue) PopBurst(dst []Word) int {
	n := 0
	for i := range dst {
		v, ok := q.TryPop()
		if !ok {
			break
		}
		dst[i] = v
		n++
	}
	return n
}

// Clear discards every buffered word without waking subscribers or touching
// the Pushed/Popped counters — the queue simply forgets its contents. It
// models a hardware flush (gateway fault recovery): the discarded words were
// never consumed, so no space-release or credit activity must follow.
func (q *Queue) Clear() {
	q.head = 0
	q.n = 0
}

// Peek returns the oldest word without removing it.
func (q *Queue) Peek() (Word, bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.buf[q.head], true
}
