package sim

import "testing"

// Wheel-specific regression tests: window boundaries, overflow cascades,
// horizon clamps interacting with the base≤now invariant, and the zero-alloc
// guarantees of the pooled event path.

func TestKernelWheelBoundaryDelays(t *testing.T) {
	k := NewKernel()
	var order []Time
	rec := func() { order = append(order, k.Now()) }
	// One event either side of the wheel window plus the exact boundary.
	k.Schedule(wheelSize+1, rec)
	k.Schedule(wheelSize, rec)
	k.Schedule(wheelSize-1, rec)
	k.RunAll()
	want := []Time{wheelSize - 1, wheelSize, wheelSize + 1}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestKernelOverflowSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var ids []int
	at := Time(2 * wheelSize)
	// First two go to overflow; advancing the clock cascades them into the
	// wheel, where a third same-time event is then scheduled behind them.
	k.ScheduleAt(at, func() { ids = append(ids, 1) })
	k.ScheduleAt(at, func() { ids = append(ids, 2) })
	k.Run(at - 10)
	k.ScheduleAt(at, func() { ids = append(ids, 3) })
	k.RunAll()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("ids = %v, want [1 2 3] (seq FIFO across overflow cascade)", ids)
	}
	if k.Now() != at {
		t.Errorf("now = %d, want %d", k.Now(), at)
	}
}

func TestKernelHorizonClampThenShortDelay(t *testing.T) {
	// Run clamps the clock to the horizon while a far event stays pending;
	// scheduling a short delay afterwards must fire before the far event
	// even though the clock jumped deep into the wheel's previous window.
	k := NewKernel()
	var order []int
	k.Schedule(10*wheelSize, func() { order = append(order, 2) })
	k.Run(5 * wheelSize)
	if k.Now() != 5*wheelSize {
		t.Fatalf("now = %d, want clamp at %d", k.Now(), 5*wheelSize)
	}
	k.Schedule(3, func() { order = append(order, 1) })
	k.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestKernelZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	k.Schedule(1, fn) // cold start: wheel arrays + first event record
	k.Step()
	if a := testing.AllocsPerRun(500, func() {
		k.Schedule(3, fn)
		k.Step()
	}); a != 0 {
		t.Fatalf("steady-state Schedule/Step allocates %v/op, want 0", a)
	}
}

func TestKernelZeroAllocSelfReschedule(t *testing.T) {
	k := NewKernel()
	remaining := 0
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			k.Schedule(1, tick)
		}
	}
	var delta func()
	delta = func() {
		if remaining > 0 {
			remaining--
			k.Schedule(0, delta)
		}
	}
	k.Schedule(1, tick)
	k.RunAll() // warm the pool and wheel
	if a := testing.AllocsPerRun(100, func() {
		remaining = 64
		k.Schedule(1, tick)
		k.RunAll()
	}); a != 0 {
		t.Fatalf("timer-tick chain allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		remaining = 64
		k.Schedule(0, delta)
		k.RunAll()
	}); a != 0 {
		t.Fatalf("delta-cycle chain allocates %v/op, want 0", a)
	}
}

func TestKernelZeroAllocPooledBurst(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Prime the free list to the burst high-water mark, then repeated
	// burst/drain rounds must reuse the pooled records exclusively.
	for i := 0; i < 256; i++ {
		k.Schedule(Time(i%97), fn)
	}
	k.RunAll()
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			k.Schedule(Time(i%97), fn)
		}
		k.RunAll()
	}); a != 0 {
		t.Fatalf("pooled burst allocates %v/op, want 0", a)
	}
}

func TestKernelZeroAllocArgEvents(t *testing.T) {
	k := NewKernel()
	var sum uint64
	var tick func(uint64)
	tick = func(n uint64) {
		sum += n
		if n > 0 {
			k.ScheduleArg(n%3, tick, n-1) // delta cycles and short delays
		}
	}
	fn := func() {}
	k.ScheduleArg(1, tick, 64)
	k.RunAll() // warm the pool and wheel
	if a := testing.AllocsPerRun(100, func() {
		k.ScheduleArg(1, tick, 64)
		k.Schedule(2, fn) // closure events interleave in the same slots
		k.ScheduleArg(wheelSize+5, tick, 3)
		k.RunAll()
	}); a != 0 {
		t.Fatalf("argument events allocate %v/op, want 0", a)
	}
	// Warm-up run plus AllocsPerRun's own warm-up call and 100 measured ones.
	const near, far = 64 * 65 / 2, 3 * 4 / 2 // argument sums of the two chains
	if want := uint64(near + 101*(near+far)); sum != want {
		t.Fatalf("handlers received argument sum %d, want %d", sum, want)
	}
}

func TestKernelReservedPlaceOrder(t *testing.T) {
	// A place reserved mid-cycle sits behind the same-time events scheduled
	// before it and ahead of those scheduled after it, and stops being Ahead
	// once an event after it fires.
	k := NewKernel()
	var ids []int
	rec := func(id int) func() { return func() { ids = append(ids, id) } }
	var p Place
	k.Schedule(1, func() {
		k.Schedule(0, rec(1))
		p = k.Reserve()
		k.Schedule(0, rec(3))
		k.Schedule(0, func() {
			if k.Ahead(p) {
				t.Error("place still Ahead after a later event fired")
			}
		})
	})
	k.Step()
	if !k.Ahead(p) {
		t.Fatal("fresh place not Ahead")
	}
	k.Step() // fires 1, still before p
	if !k.Ahead(p) {
		t.Fatal("place not Ahead after an earlier event fired")
	}
	k.ScheduleAtPlace(p, rec(2))
	k.RunAll()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("ids = %v, want [1 2 3]", ids)
	}
	if k.Ahead(p) {
		t.Fatal("place Ahead after it fired")
	}
	// A horizon clamp past the place passes it too.
	q := k.Reserve()
	k.Run(k.Now() + 5)
	if k.Ahead(q) {
		t.Fatal("place Ahead after the clock moved past it")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAtPlace at a passed place did not panic")
		}
	}()
	k.ScheduleAtPlace(q, rec(4))
}

func TestKernelZeroAllocReservedPlace(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	round := func() {
		k.Schedule(0, fn)
		p := k.Reserve()
		k.Schedule(0, fn)
		k.Schedule(0, fn)
		if k.Ahead(p) {
			k.ScheduleAtPlace(p, fn) // walks past the older resident
		}
		q := k.Reserve()
		k.ScheduleAtPlace(q, fn) // the newest seq: appends
		k.Schedule(1, fn)
		k.RunAll()
	}
	round() // cold start: wheel arrays and the pool's high-water mark
	if a := testing.AllocsPerRun(500, round); a != 0 {
		t.Fatalf("steady-state Reserve/Ahead/ScheduleAtPlace allocates %v/op, want 0", a)
	}
}
