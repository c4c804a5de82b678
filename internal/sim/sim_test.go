package sim

import "testing"

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(10, func() { order = append(order, 2) })
	k.Schedule(5, func() { order = append(order, 1) })
	k.Schedule(10, func() { order = append(order, 3) }) // same time: FIFO by seq
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 10 {
		t.Errorf("now = %d", k.Now())
	}
}

func TestKernelRunHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(5, func() { fired++ })
	k.Schedule(50, func() { fired++ })
	k.Run(20)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if k.Now() != 20 {
		t.Errorf("now = %d, want 20 (clamped to horizon)", k.Now())
	}
	k.Run(100)
	if fired != 2 || k.Now() != 100 {
		t.Errorf("fired=%d now=%d", fired, k.Now())
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Schedule(1, func() {
		times = append(times, k.Now())
		k.Schedule(2, func() { times = append(times, k.Now()) })
	})
	k.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.ScheduleAt(5, func() {})
}

func TestWakerCoalesces(t *testing.T) {
	k := NewKernel()
	calls := 0
	w := NewWaker(k, func() { calls++ })
	w.Wake()
	w.Wake()
	w.Wake()
	k.RunAll()
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (coalesced)", calls)
	}
	w.Wake()
	k.RunAll()
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (re-armed after firing)", calls)
	}
}

func TestWakerWhenGates(t *testing.T) {
	k := NewKernel()
	calls := 0
	w := NewWaker(k, func() { calls++ })
	open := false
	a := w.When(func() bool { return open })
	a.Wake()
	k.RunAll()
	if calls != 0 || k.Processed != 0 {
		t.Fatalf("closed alias: calls = %d, events = %d, want 0 and 0", calls, k.Processed)
	}
	open = true
	a.Wake()
	k.RunAll()
	if calls != 1 || k.Processed != 1 {
		t.Fatalf("open alias: calls = %d, events = %d, want 1 and 1", calls, k.Processed)
	}
	// The condition is read at the wake, not at the tick: closing the gate
	// after a forwarded wake does not cancel it.
	a.Wake()
	open = false
	k.RunAll()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (wake forwarded before the gate closed)", calls)
	}
}

func TestWakerWhenCoalescesWithTarget(t *testing.T) {
	k := NewKernel()
	var at []Time
	w := NewWaker(k, func() { at = append(at, k.Now()) })
	a := w.When(func() bool { return true })
	b := w.When(func() bool { return true })
	nested := a.When(func() bool { return true })
	k.Schedule(3, func() {
		a.Wake()
		w.Wake()
		b.Wake()
		nested.Wake()
	})
	k.Schedule(5, func() { nested.Wake() })
	k.RunAll()
	// Two triggers and one tick per delta-cycle.
	if len(at) != 2 || at[0] != 3 || at[1] != 5 || k.Processed != 4 {
		t.Fatalf("ticks at %v after %d events, want [3 5] after 4", at, k.Processed)
	}
	// A nested alias forwards only while every condition on its path holds.
	blocked := w.When(func() bool { return false }).When(func() bool { return true })
	blocked.Wake()
	k.RunAll()
	if len(at) != 2 {
		t.Fatalf("ticks at %v, want no tick through a closed inner alias", at)
	}
}

func TestPackUnpackIQ(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, -1}, {-32768, 32767}, {1 << 30, -(1 << 30)}, {-1, -1}}
	for _, c := range cases {
		i, q := UnpackIQ(PackIQ(c[0], c[1]))
		if i != c[0] || q != c[1] {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", c[0], c[1], i, q)
		}
	}
}

func TestQueueBasics(t *testing.T) {
	q := NewQueue("q", 2)
	if q.Cap() != 2 || q.Len() != 0 {
		t.Fatal("fresh queue wrong")
	}
	if !q.TryPush(1) || !q.TryPush(2) {
		t.Fatal("pushes failed")
	}
	if q.TryPush(3) {
		t.Fatal("push into full queue succeeded")
	}
	v, ok := q.TryPop()
	if !ok || v != 1 {
		t.Fatalf("pop = %d %v", v, ok)
	}
	if q.MaxOccupancy != 2 {
		t.Errorf("max occupancy = %d", q.MaxOccupancy)
	}
	q.TryPop()
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if q.Pushed != 2 || q.Popped != 2 {
		t.Errorf("counters: pushed=%d popped=%d", q.Pushed, q.Popped)
	}
}

func TestQueueWakeups(t *testing.T) {
	k := NewKernel()
	q := NewQueue("q", 1)
	dataWakes, spaceWakes := 0, 0
	q.SubscribeData(NewWaker(k, func() { dataWakes++ }))
	q.SubscribeSpace(NewWaker(k, func() { spaceWakes++ }))
	q.TryPush(42)
	k.RunAll()
	if dataWakes != 1 || spaceWakes != 0 {
		t.Errorf("after push: data=%d space=%d", dataWakes, spaceWakes)
	}
	q.TryPop()
	k.RunAll()
	if spaceWakes != 1 {
		t.Errorf("after pop: space=%d", spaceWakes)
	}
}

func TestQueueClearDiscardsSilently(t *testing.T) {
	k := NewKernel()
	q := NewQueue("q", 4)
	spaceWakes := 0
	q.SubscribeSpace(NewWaker(k, func() { spaceWakes++ }))
	q.TryPush(1)
	q.TryPush(2)
	q.TryPush(3)
	k.RunAll()
	q.Clear()
	k.RunAll()
	if q.Len() != 0 {
		t.Fatalf("len = %d after Clear", q.Len())
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop succeeded after Clear")
	}
	if spaceWakes != 0 {
		t.Errorf("Clear woke space subscribers %d times (must be silent)", spaceWakes)
	}
	if q.Pushed != 3 || q.Popped != 0 {
		t.Errorf("Clear changed counters: pushed=%d popped=%d", q.Pushed, q.Popped)
	}
	// Full capacity is usable again and FIFO order is intact.
	for i := 0; i < 4; i++ {
		if !q.TryPush(Word(10 + i)) {
			t.Fatalf("push %d after Clear failed", i)
		}
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryPop()
		if !ok || v != Word(10+i) {
			t.Fatalf("post-Clear pop %d = %d %v", i, v, ok)
		}
	}
}

func TestQueueFIFOOrderWrapAround(t *testing.T) {
	q := NewQueue("q", 3)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			if !q.TryPush(Word(round*10 + i)) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryPop()
			if !ok || v != Word(round*10+i) {
				t.Fatalf("round %d: pop %d = %d", round, i, v)
			}
		}
	}
}

// TestQueueZeroCapPanics: a queue of no capacity panics at construction,
// whether it would allocate its storage or be built on storage given.
func TestQueueZeroCapPanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"NewQueue(0)", func() { NewQueue("bad", 0) }},
		{"NewQueueOn(nil)", func() { NewQueueOn("bad", nil) }},
		{"NewQueueOn(empty)", func() { NewQueueOn("bad", []Word{}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.build()
		}()
	}
}

// TestQueueOnGivenStorage: a queue built on storage another queue handed
// back writes into that storage, ignores what it held and takes its
// capacity from its length; the queue that handed it back is left empty
// and without storage, so a late push panics instead of writing into it.
func TestQueueOnGivenStorage(t *testing.T) {
	old := NewQueue("old", 3)
	for _, w := range []Word{7, 8, 9} {
		old.TryPush(w)
	}
	old.TryPop()
	buf := old.Detach()
	if len(buf) != 3 || old.Len() != 0 || old.Cap() != 3 || old.Popped != 1 || old.Pushed != 3 {
		t.Fatalf("detached %d words; old queue len %d cap %d, pushed %d popped %d",
			len(buf), old.Len(), old.Cap(), old.Pushed, old.Popped)
	}
	if _, ok := old.TryPop(); ok {
		t.Fatal("pop from a detached queue succeeded")
	}
	if again := old.Detach(); again != nil {
		t.Fatalf("second Detach handed back %d words, want none", len(again))
	}

	q := NewQueueOn("new", buf)
	if q.Cap() != 3 || q.Len() != 0 {
		t.Fatalf("queue on 3 words: cap %d len %d, want 3 and 0", q.Cap(), q.Len())
	}
	for _, w := range []Word{1, 2} {
		q.TryPush(w)
	}
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("first pop = %d %v, want 1 (stale words must not surface)", v, ok)
	}
	if buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("storage holds %v, want the new queue's words 1 and 2 first", buf)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("push into a detached queue did not panic")
		}
		if buf[0] != 1 || buf[1] != 2 {
			t.Fatalf("storage now serving another queue holds %v after the late push", buf)
		}
	}()
	old.TryPush(42)
}
