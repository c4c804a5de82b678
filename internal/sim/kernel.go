package sim

import "math/bits"

// The event scheduler is a single-level timing wheel (a calendar queue with
// cycle granularity) backed by an overflow heap:
//
//   - Events within wheelSize cycles of the clock live in a circular array of
//     wheelSize slots, indexed by (at & wheelMask). Each slot is an intrusive
//     singly-linked FIFO list; because inserts always happen with base == now
//     (see cascade) and the window is exactly one wheel revolution, every
//     event in a given slot carries the *same* absolute time, so tail-append
//     preserves the (time, seq) total order without any comparison.
//   - Events at or beyond now+wheelSize wait in a typed min-heap ordered by
//     (at, seq) — no interface boxing — and migrate into the wheel as the
//     clock approaches them (cascade). Migration pops in (at, seq) order and
//     tail-appends, so merged slots stay seq-sorted.
//   - Fired event records are recycled through an intrusive free list; the
//     steady-state Schedule/Step cycle allocates nothing (proved by
//     TestKernelZeroAlloc with testing.AllocsPerRun).
//   - A record carries either a closure (Schedule) or a handler plus one
//     argument word (ScheduleArg). The argument form lets a component bind
//     its handler once at construction and pass the per-event datum — a
//     block or tile epoch — in the record, so per-word events allocate no
//     closure either.
//   - Reserve claims the place of a delay-0 event without scheduling it; a
//     component that skips an event it would have scheduled can still put it
//     back at exactly that place (ScheduleAtPlace) while the place is Ahead.
//     That one insert is older than the events scheduled since, so it walks
//     its slot to its seq position instead of tail-appending.
//
// A per-slot occupancy bitmap lets Step find the next nonempty slot with a
// handful of word scans (math/bits.TrailingZeros64) instead of walking 4096
// slots. The semantics — including the "scheduling into the past" panic and
// Run's horizon clamp — are identical to the reference heap implementation in
// kernel_ref_test.go; TestKernelDifferential and FuzzKernelSchedule enforce
// that.

const (
	wheelBits  = 12
	wheelSize  = 1 << wheelBits // cycles covered by the near-term wheel
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
)

// Place is a position in the (time, seq) firing order that Reserve claimed
// for an event not (yet) scheduled.
type Place struct {
	at  Time
	seq uint64
}

type event struct {
	at  Time
	seq uint64
	// Exactly one of fn and argFn is set; argFn is invoked with arg.
	fn    func()
	argFn func(uint64)
	arg   uint64
	next  *event
}

type slot struct {
	head, tail *event
}

// Kernel owns the clock and the event queue.
type Kernel struct {
	now Time
	seq uint64
	// live counts scheduled-but-unfired events.
	live int
	// slots[t & wheelMask] holds events with at in [now, now+wheelSize).
	slots []slot
	// occupied has bit s set iff slots[s] is nonempty.
	occupied []uint64
	// overflow is a min-heap on (at, seq) of events beyond the wheel window.
	overflow []*event
	// free is the recycled-event list (intrusive via event.next).
	free *event
	// fired is the seq of the last event fired: a place at now is Ahead
	// while its seq is larger.
	fired uint64
	// Processed counts executed events (for budget checks in tests).
	Processed uint64
}

// NewKernel returns a kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Schedule runs fn after delay cycles (delay 0 = later in the same cycle).
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) Schedule(delay Time, fn func()) {
	k.insert(k.now+delay, fn, nil, 0)
}

// ScheduleAt runs fn at absolute time t (panics when t is in the past —
// that is always a component bug).
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) ScheduleAt(t Time, fn func()) {
	k.insert(t, fn, nil, 0)
}

// ScheduleArg runs fn(arg) after delay cycles, in the same (time, seq) order
// as Schedule. Components bind fn once (a method value) and pass the
// per-event datum as arg, so the event costs no closure allocation.
//
//accellint:noalloc guard=TestKernelZeroAllocArgEvents
func (k *Kernel) ScheduleArg(delay Time, fn func(uint64), arg uint64) {
	k.insert(k.now+delay, nil, fn, arg)
}

// Reserve claims the place a delay-0 Schedule issued now would take — the
// next seq at the current time — and schedules nothing.
//
//accellint:noalloc guard=TestKernelZeroAllocReservedPlace
func (k *Kernel) Reserve() Place {
	k.seq++
	return Place{at: k.now, seq: k.seq}
}

// Ahead reports whether p is still ahead of the firing event: the clock is
// at p's time and no event ordered after p has fired. An event put at p now
// would fire where the event it stands for would have.
//
//accellint:noalloc guard=TestKernelZeroAllocReservedPlace
func (k *Kernel) Ahead(p Place) bool {
	return p.at == k.now && p.seq > k.fired
}

// ScheduleAtPlace runs fn at the reserved place p, which must still be
// Ahead (panics otherwise: the place has passed). Put at most one event at
// a place.
//
//accellint:noalloc guard=TestKernelZeroAllocReservedPlace
func (k *Kernel) ScheduleAtPlace(p Place, fn func()) {
	if !k.Ahead(p) {
		panic("sim: scheduling at a passed place")
	}
	k.prepare()
	e := k.alloc()
	e.at, e.seq, e.fn = p.at, p.seq, fn
	k.live++
	// p.at == now, so the event belongs in the wheel.
	k.pushSlotOrdered(e)
}

// insert enqueues one event record at absolute time t.
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) insert(t Time, fn func(), argFn func(uint64), arg uint64) {
	if t < k.now {
		panic("sim: scheduling into the past")
	}
	k.prepare()
	k.seq++
	e := k.alloc()
	e.at, e.seq, e.fn, e.argFn, e.arg = t, k.seq, fn, argFn, arg
	k.live++
	if t-k.now < wheelSize {
		k.pushSlot(e)
	} else {
		k.pushOverflow(e)
	}
}

// Step executes the next event; it reports false when the queue is empty.
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) Step() bool {
	e := k.popUntil(^Time(0))
	if e == nil {
		return false
	}
	k.fire(e)
	return true
}

// fire advances the clock to a popped event and runs it.
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) fire(e *event) {
	k.now = e.at
	k.fired = e.seq
	k.Processed++
	fn, argFn, arg := e.fn, e.argFn, e.arg
	// Recycle before invoking fn: a callback that reschedules itself (the
	// dominant pattern — tile service, DMA ticks, source periods) reuses this
	// record immediately instead of growing the pool.
	k.recycle(e)
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
}

// Run processes events until the queue is empty or the next event lies
// beyond `until`; the clock ends at min(until, last event time). Returns
// the final time. Each event is located once: popUntil tests the horizon
// on the candidate it would remove.
func (k *Kernel) Run(until Time) Time {
	for e := k.popUntil(until); e != nil; e = k.popUntil(until) {
		k.fire(e)
	}
	if k.now < until {
		k.now = until
	}
	return k.now
}

// RunAll processes every event. Componentized models that reschedule
// themselves forever must use Run with a horizon instead.
func (k *Kernel) RunAll() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil processes events until cond returns true (checked after every
// event), the queue drains, or the horizon passes. It returns true when
// cond was met — the idiom for driving a simulation to an asynchronous
// milestone (a mode transition completing, a verdict landing) without
// guessing its wall-clock time.
func (k *Kernel) RunUntil(until Time, cond func() bool) bool {
	if cond() {
		return true
	}
	for e := k.popUntil(until); e != nil; e = k.popUntil(until) {
		k.fire(e)
		if cond() {
			return true
		}
	}
	return false
}

// --- wheel internals ---

// prepare readies the wheel for an insert: it sizes the wheel on first use
// and migrates matured overflow events, so that a same-time event already
// waiting in the overflow heap (necessarily older, hence smaller seq) lands
// in the slot ahead of the one being scheduled now.
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) prepare() {
	if k.slots == nil {
		//accellint:alloc first-schedule lazy sizing of the wheel
		k.slots = make([]slot, wheelSize)
		//accellint:alloc first-schedule lazy sizing of the occupancy bitmap
		k.occupied = make([]uint64, wheelWords)
	}
	k.cascade()
}

// alloc takes an event record from the free list, or allocates one when the
// pool is empty (cold start / high-water growth only).
//
//accellint:noalloc guard=TestKernelZeroAllocPooledBurst
func (k *Kernel) alloc() *event {
	if e := k.free; e != nil {
		k.free = e.next
		e.next = nil
		return e
	}
	//accellint:alloc pool growth to the live-event high-water mark
	return &event{}
}

// recycle clears a fired record and pushes it onto the free list.
//
//accellint:noalloc guard=TestKernelZeroAllocPooledBurst
func (k *Kernel) recycle(e *event) {
	e.fn, e.argFn = nil, nil
	e.next = k.free
	k.free = e
}

// cascade migrates overflow events whose time has entered the wheel window.
// It must run before any slot insert and before any wheel scan: the wheel
// invariant is that every resident event satisfies at - now < wheelSize, so
// slot index (at & wheelMask) is unambiguous and slot lists are FIFO-by-seq.
// Pops come off the heap in (at, seq) order, so tail-appending keeps every
// slot sorted even when it merges migrants with residents.
func (k *Kernel) cascade() {
	for len(k.overflow) > 0 && k.overflow[0].at-k.now < wheelSize {
		k.pushSlot(k.popOverflow())
	}
}

func (k *Kernel) pushSlot(e *event) {
	s := int(e.at) & wheelMask
	sl := &k.slots[s]
	if sl.head == nil {
		sl.head = e
		k.occupied[s>>6] |= 1 << uint(s&63)
	} else {
		sl.tail.next = e
	}
	sl.tail = e
}

// pushSlotOrdered inserts e at its seq position in its slot. Every other
// insert carries the newest seq and appends (pushSlot); an event put at a
// reserved place is older than the ones scheduled since, so it passes the
// older residents and stops before the first newer one.
//
//accellint:noalloc guard=TestKernelZeroAllocReservedPlace
func (k *Kernel) pushSlotOrdered(e *event) {
	sl := &k.slots[int(e.at)&wheelMask]
	if sl.head == nil || sl.tail.seq < e.seq {
		k.pushSlot(e)
		return
	}
	if sl.head.seq > e.seq {
		e.next = sl.head
		sl.head = e
		return
	}
	prev := sl.head
	for prev.next.seq < e.seq {
		prev = prev.next
	}
	e.next = prev.next
	prev.next = e
}

// scanWheel finds the slot of the earliest wheel event, scanning the
// occupancy bitmap circularly from the slot of `now`. Because every resident
// event is within one revolution of now, circular distance from now's slot
// equals temporal distance.
func (k *Kernel) scanWheel() (int, bool) {
	s0 := int(k.now) & wheelMask
	w0 := s0 >> 6
	off := uint(s0 & 63)
	if v := k.occupied[w0] >> off; v != 0 {
		return s0 + bits.TrailingZeros64(v), true
	}
	for i := 1; i <= wheelWords; i++ {
		w := (w0 + i) & (wheelWords - 1)
		if v := k.occupied[w]; v != 0 {
			return w<<6 + bits.TrailingZeros64(v), true
		}
	}
	return 0, false
}

// popUntil removes and returns the earliest pending event when it lies at
// or before until, and nil otherwise (nothing pending, or the earliest event
// is beyond the horizon and stays queued). After cascade, every overflow
// event is at least a full wheel revolution away, so any wheel resident
// beats the overflow top.
//
//accellint:noalloc guard=TestKernelZeroAllocSteadyState
func (k *Kernel) popUntil(until Time) *event {
	if k.live == 0 {
		return nil
	}
	k.cascade()
	s, ok := k.scanWheel()
	if !ok {
		if k.overflow[0].at > until {
			return nil
		}
		k.live--
		return k.popOverflow()
	}
	sl := &k.slots[s]
	e := sl.head
	if e.at > until {
		return nil
	}
	k.live--
	sl.head = e.next
	if sl.head == nil {
		sl.tail = nil
		k.occupied[s>>6] &^= 1 << uint(s&63)
	}
	e.next = nil
	return e
}

// --- overflow heap (typed, no boxing) ---

func overflowLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//accellint:noalloc guard=TestKernelZeroAllocOverflow
func (k *Kernel) pushOverflow(e *event) {
	//accellint:alloc heap growth to the far-future high-water mark
	k.overflow = append(k.overflow, e)
	i := len(k.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(k.overflow[i], k.overflow[parent]) {
			break
		}
		k.overflow[i], k.overflow[parent] = k.overflow[parent], k.overflow[i]
		i = parent
	}
}

func (k *Kernel) popOverflow() *event {
	h := k.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	k.overflow = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && overflowLess(h[l], h[min]) {
			min = l
		}
		if r < n && overflowLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
