package sim

import "testing"

// Differential harness: the timing-wheel Kernel and the reference heapKernel
// run identical Schedule/ScheduleAt/ScheduleArg/Step/Run/RunUntil scripts
// and must agree on the firing order, firing times, handler arguments, clock
// and queue state at every step — including same-time FIFO-by-seq ordering
// across closure and argument events, delay-0 self-reschedules, wheel
// boundary delays and horizon clamps.

// Pending reports whether any events remain; the harness compares it with
// the reference kernel's after every step.
func (k *Kernel) Pending() bool { return k.live > 0 }

// schedKernel is the scheduling surface shared by Kernel and heapKernel.
type schedKernel interface {
	Now() Time
	Schedule(Time, func())
	ScheduleAt(Time, func())
	ScheduleArg(Time, func(uint64), uint64)
	Pending() bool
	Step() bool
	Run(Time) Time
	RunAll() Time
	RunUntil(Time, func() bool) bool
	Reserve() Place
	Ahead(Place) bool
	ScheduleAtPlace(Place, func())
}

// firing is one logged event: closure events log their id, argument events
// the argument their handler received (id 0).
type firing struct {
	at  Time
	id  int
	arg uint64
}

// diffDriver applies a script to one kernel and logs every firing.
type diffDriver struct {
	k   schedKernel
	log []firing
}

// hook returns a callback that logs (now, id) and, for chain > 0, reschedules
// itself chain more times at the given delay (delay 0 exercises same-cycle
// self-reschedules through the recycled event record).
func (d *diffDriver) hook(id, chain int, delay Time) func() {
	var fn func()
	fn = func() {
		d.log = append(d.log, firing{at: d.k.Now(), id: id})
		if chain > 0 {
			chain--
			id += 1 << 20
			d.k.Schedule(delay, fn)
		}
	}
	return fn
}

// argEvent packs an argument event's identity, remaining chain length and
// re-schedule delay into its one word, so the handler needs no closure.
func argEvent(id, chain int, delay Time) uint64 {
	return uint64(id)<<40 | uint64(chain)<<32 | uint64(delay)
}

// onArg logs the argument it received and, while the argument's chain count
// is positive, reschedules itself with the count decremented.
func (d *diffDriver) onArg(arg uint64) {
	d.log = append(d.log, firing{at: d.k.Now(), arg: arg})
	if arg>>32&0xff > 0 {
		d.k.ScheduleArg(Time(uint32(arg)), d.onArg, arg-1<<32)
	}
}

// schedule issues the same relative event on both kernels: a closure event
// (hook) or, with arg set, an argument event carrying argEvent's word.
func schedule(w, h *diffDriver, arg bool, d Time, id, chain int, delay Time) {
	if arg {
		a := argEvent(id, chain, delay)
		w.k.ScheduleArg(d, w.onArg, a)
		h.k.ScheduleArg(d, h.onArg, a)
		return
	}
	w.k.Schedule(d, w.hook(id, chain, delay))
	h.k.Schedule(d, h.hook(id, chain, delay))
}

// reserve claims a place on both kernels, which must hand out the same one,
// and appends it to places.
func reserve(t *testing.T, op int, w, h *diffDriver, places []Place) []Place {
	t.Helper()
	pw, ph := w.k.Reserve(), h.k.Reserve()
	if pw != ph {
		t.Fatalf("op %d: Reserve wheel=%+v heap=%+v", op, pw, ph)
	}
	return append(places, pw)
}

// atPlace puts closure event id at places[i] on both kernels and removes
// the place (one event per place). The kernels must agree on whether the
// place is still Ahead, and a passed place must panic on both.
func atPlace(t *testing.T, op int, w, h *diffDriver, places []Place, i, id int) []Place {
	t.Helper()
	p := places[i]
	if aw, ah := w.k.Ahead(p), h.k.Ahead(p); aw != ah {
		t.Fatalf("op %d: Ahead(%+v) wheel=%v heap=%v", op, p, aw, ah)
	}
	pw := placePanic(w.k, p, w.hook(id, 0, 0))
	ph := placePanic(h.k, p, h.hook(id, 0, 0))
	if pw != ph {
		t.Fatalf("op %d: ScheduleAtPlace(%+v) panic wheel=%q heap=%q", op, p, pw, ph)
	}
	return append(places[:i], places[i+1:]...)
}

// placePanic invokes ScheduleAtPlace and returns the recovered panic message
// ("" when no panic occurred).
func placePanic(k schedKernel, p Place, fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	k.ScheduleAtPlace(p, fn)
	return ""
}

// diffRand is a self-contained xorshift64 so scripts are reproducible from a
// seed without importing math/rand.
type diffRand uint64

func (r *diffRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = diffRand(x)
	return x
}

// diffDelays mixes the interesting regimes: delta cycles, short wheel
// residence, the exact wheel-window boundary and deep overflow times.
var diffDelays = []Time{0, 1, 1, 2, 3, 7, 64, 1000, wheelSize - 1, wheelSize, wheelSize + 1, 3 * wheelSize, 100000}

func diffCompare(t *testing.T, op int, w, h *diffDriver) {
	t.Helper()
	if w.k.Now() != h.k.Now() {
		t.Fatalf("op %d: now wheel=%d heap=%d", op, w.k.Now(), h.k.Now())
	}
	if w.k.Pending() != h.k.Pending() {
		t.Fatalf("op %d: pending wheel=%v heap=%v", op, w.k.Pending(), h.k.Pending())
	}
	if len(w.log) != len(h.log) {
		t.Fatalf("op %d: fired wheel=%d heap=%d events", op, len(w.log), len(h.log))
	}
	for j := range w.log {
		if w.log[j] != h.log[j] {
			t.Fatalf("op %d: firing %d diverged: wheel=%+v heap=%+v", op, j, w.log[j], h.log[j])
		}
	}
}

func runDiffScript(t *testing.T, seed uint64, ops int) {
	t.Helper()
	w := &diffDriver{k: NewKernel()}
	h := &diffDriver{k: newHeapKernel()}
	r := diffRand(seed | 1)
	id := 0
	var places []Place
	for i := 0; i < ops; i++ {
		// Every schedule op picks a closure or an argument event, so the two
		// kinds interleave within slots, cascades and same-time bursts.
		arg := r.next()&1 == 1
		switch op := r.next() % 13; {
		case op < 3: // relative schedule across all delay regimes
			d := diffDelays[r.next()%uint64(len(diffDelays))]
			id++
			schedule(w, h, arg, d, id, 0, 0)
		case op == 3: // same-time burst: FIFO-by-seq within one slot
			d := diffDelays[r.next()%uint64(len(diffDelays))]
			for j := 0; j < 3; j++ {
				id++
				schedule(w, h, arg != (j == 1), d, id, 0, 0)
			}
		case op == 4: // absolute schedule
			off := r.next() % (4 * wheelSize)
			id++
			if arg {
				schedule(w, h, true, off, id, 0, 0)
				break
			}
			w.k.ScheduleAt(w.k.Now()+off, w.hook(id, 0, 0))
			h.k.ScheduleAt(h.k.Now()+off, h.hook(id, 0, 0))
		case op == 5: // cascading self-reschedule chain
			d := diffDelays[r.next()%uint64(len(diffDelays))]
			n := int(r.next() % 4)
			id++
			schedule(w, h, arg, d, id, n, d)
		case op == 6:
			if sw, sh := w.k.Step(), h.k.Step(); sw != sh {
				t.Fatalf("op %d: Step wheel=%v heap=%v", i, sw, sh)
			}
		case op == 7: // horizon run, including exact wheel-boundary horizons
			hor := w.k.Now() + diffDelays[r.next()%uint64(len(diffDelays))]
			if tw, th := w.k.Run(hor), h.k.Run(hor); tw != th {
				t.Fatalf("op %d: Run(%d) wheel=%d heap=%d", i, hor, tw, th)
			}
		case op == 8: // milestone run: stop after a firing-count target
			target := len(w.log) + int(r.next()%5)
			hor := w.k.Now() + r.next()%5000
			cw := w.k.RunUntil(hor, func() bool { return len(w.log) >= target })
			ch := h.k.RunUntil(hor, func() bool { return len(h.log) >= target })
			if cw != ch {
				t.Fatalf("op %d: RunUntil wheel=%v heap=%v", i, cw, ch)
			}
		case op == 10: // reserve a place at the current time
			places = reserve(t, i, w, h, places)
		case op == 11: // put an event at a reserved place, passed or not
			if len(places) > 0 {
				id++
				places = atPlace(t, i, w, h, places, int(r.next()%uint64(len(places))), id)
			}
		case op == 12: // a place between same-time events, filled at once or later
			id++
			schedule(w, h, arg, 0, id, 0, 0)
			places = reserve(t, i, w, h, places)
			id++
			schedule(w, h, !arg, 0, id, 0, 0)
			if r.next()&1 == 1 {
				id++
				places = atPlace(t, i, w, h, places, len(places)-1, id)
			}
		default: // drain a few
			for j := 0; j < 8; j++ {
				w.k.Step()
				h.k.Step()
			}
		}
		diffCompare(t, i, w, h)
	}
	w.k.RunAll()
	h.k.RunAll()
	diffCompare(t, ops, w, h)
}

func TestKernelDifferential(t *testing.T) {
	ops := 1500
	seeds := 20
	if testing.Short() {
		ops, seeds = 400, 6
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b97f4a7c15 + 1
		t.Run("", func(t *testing.T) { runDiffScript(t, seed, ops) })
	}
}

// TestKernelDifferentialDeep is one long soak so the wheel wraps many times
// and overflow cascades interleave with fresh schedules.
func TestKernelDifferentialDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential soak")
	}
	runDiffScript(t, 0xabcdef123456789, 20000)
}
