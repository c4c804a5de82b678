package sim

import "container/heap"

// heapKernel is the original container/heap event scheduler, kept as the
// test-only reference implementation for the differential and fuzz
// harnesses (TestKernelDifferential, FuzzKernelSchedule): the timing-wheel
// Kernel must reproduce its firing order, times, clock and handler
// arguments at every step. Production code always uses Kernel.
type heapKernel struct {
	now       Time
	seq       uint64
	events    refEventHeap
	Processed uint64
	// firedAt and firedSeq are the (time, seq) key of the last event fired.
	firedAt  Time
	firedSeq uint64
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	argFn func(uint64)
	arg   uint64
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newHeapKernel() *heapKernel { return &heapKernel{} }

func (k *heapKernel) Now() Time { return k.now }

func (k *heapKernel) Schedule(delay Time, fn func()) {
	k.ScheduleAt(k.now+delay, fn)
}

func (k *heapKernel) ScheduleAt(t Time, fn func()) {
	k.push(refEvent{at: t, fn: fn})
}

func (k *heapKernel) ScheduleArg(delay Time, fn func(uint64), arg uint64) {
	k.push(refEvent{at: k.now + delay, argFn: fn, arg: arg})
}

func (k *heapKernel) push(e refEvent) {
	if e.at < k.now {
		panic("sim: scheduling into the past")
	}
	k.seq++
	e.seq = k.seq
	heap.Push(&k.events, e)
}

// Reserve takes the next seq at the current time and schedules nothing.
func (k *heapKernel) Reserve() Place {
	k.seq++
	return Place{at: k.now, seq: k.seq}
}

// Ahead compares whole keys: p is ahead while the clock has not run past
// its time and the last event fired is ordered before it.
func (k *heapKernel) Ahead(p Place) bool {
	if k.now > p.at {
		return false
	}
	return k.firedAt < p.at || k.firedAt == p.at && k.firedSeq < p.seq
}

func (k *heapKernel) ScheduleAtPlace(p Place, fn func()) {
	if !k.Ahead(p) {
		panic("sim: scheduling at a passed place")
	}
	heap.Push(&k.events, refEvent{at: p.at, seq: p.seq, fn: fn})
}

func (k *heapKernel) Pending() bool { return len(k.events) > 0 }

func (k *heapKernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := heap.Pop(&k.events).(refEvent)
	k.now = e.at
	k.firedAt, k.firedSeq = e.at, e.seq
	k.Processed++
	if e.fn != nil {
		e.fn()
	} else {
		e.argFn(e.arg)
	}
	return true
}

func (k *heapKernel) Run(until Time) Time {
	for len(k.events) > 0 && k.events[0].at <= until {
		k.Step()
	}
	if k.now < until {
		k.now = until
	}
	return k.now
}

func (k *heapKernel) RunAll() Time {
	for k.Step() {
	}
	return k.now
}

func (k *heapKernel) RunUntil(until Time, cond func() bool) bool {
	if cond() {
		return true
	}
	for len(k.events) > 0 && k.events[0].at <= until {
		k.Step()
		if cond() {
			return true
		}
	}
	return false
}
