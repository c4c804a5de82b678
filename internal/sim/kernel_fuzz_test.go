package sim

import "testing"

// FuzzKernelSchedule decodes arbitrary bytes into a scheduling script (two
// bytes per op) and cross-checks the timing-wheel Kernel against the heap
// reference after every op: clock, pending state, firing log with handler
// arguments — and panic parity for past-time ScheduleAt attempts. The op
// byte's high bit turns a relative, delta-cycle or chain schedule into an
// argument event (ScheduleArg), so both kinds interleave.
// An op byte with bit 0x40 set reserves a place (even) or puts an event at
// a reserved one (odd), the Ahead verdict and the passed-place panic
// compared too.
func FuzzKernelSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 5, 0, 4, 3})                         // delta cycles + step
	f.Add([]byte{2, 255, 2, 255, 6, 255, 5, 0, 5, 0})             // deep overflow + run
	f.Add([]byte{0, 16, 4, 3, 5, 0, 3, 0, 3, 200, 6, 64})         // chains + past-time probes
	f.Add([]byte{1, 0, 1, 0, 1, 0, 5, 0, 5, 0, 5, 0, 5, 0})       // same-cycle FIFO burst
	f.Add([]byte{0, 250, 6, 250, 0, 1, 5, 0, 7, 2, 6, 255, 5, 0}) // horizon clamps

	// Argument events (high bit set) among closure events.
	f.Add([]byte{1, 0, 129, 0, 1, 0, 128, 3, 132, 7, 5, 0, 6, 40})
	f.Add([]byte{128, 200, 0, 200, 132, 9, 4, 9, 6, 255, 5, 0})

	// Places: reserved behind a pending same-time event and filled after a
	// newer one, filled after a step passed it, and one filled at once.
	f.Add([]byte{1, 0, 64, 0, 1, 0, 65, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 2, 64, 0, 1, 0, 5, 0, 5, 0, 65, 0, 64, 0, 65, 1, 6, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		w := &diffDriver{k: NewKernel()}
		h := &diffDriver{k: newHeapKernel()}
		id := 0
		var places []Place
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, data[i+1]
			argEv := data[i]&0x80 != 0
			if data[i]&0x40 != 0 {
				if op%2 == 0 {
					places = reserve(t, i, w, h, places)
				} else if len(places) > 0 {
					id++
					places = atPlace(t, i, w, h, places, int(arg)%len(places), id)
				}
				diffCompare(t, i, w, h)
				continue
			}
			switch op {
			case 0: // relative delay, quadratic spread reaches past the wheel window
				d := Time(arg) * Time(arg)
				id++
				schedule(w, h, argEv, d, id, 0, 0)
			case 1: // delta cycle
				id++
				schedule(w, h, argEv, 0, id, 0, 0)
			case 2: // absolute, far future
				at := w.k.Now() + Time(arg)<<6
				id++
				w.k.ScheduleAt(at, w.hook(id, 0, 0))
				h.k.ScheduleAt(at, h.hook(id, 0, 0))
			case 3: // past-time probe: both kernels must agree on panicking
				at := Time(arg)
				id++
				pw := schedulePanic(w.k, at, w.hook(id, 0, 0))
				ph := schedulePanic(h.k, at, h.hook(id, 0, 0))
				if pw != ph {
					t.Fatalf("op %d: ScheduleAt(%d) panic wheel=%q heap=%q", i, at, pw, ph)
				}
			case 4: // cascading reschedules from inside callbacks
				d := Time(arg % 17)
				n := int(arg % 5)
				id++
				schedule(w, h, argEv, d, id, n, d)
			case 5:
				if sw, sh := w.k.Step(), h.k.Step(); sw != sh {
					t.Fatalf("op %d: Step wheel=%v heap=%v", i, sw, sh)
				}
			case 6:
				hor := w.k.Now() + Time(arg)<<4
				if tw, th := w.k.Run(hor), h.k.Run(hor); tw != th {
					t.Fatalf("op %d: Run wheel=%d heap=%d", i, tw, th)
				}
			case 7:
				target := len(w.log) + int(arg%4)
				hor := w.k.Now() + Time(arg)<<2
				cw := w.k.RunUntil(hor, func() bool { return len(w.log) >= target })
				ch := h.k.RunUntil(hor, func() bool { return len(h.log) >= target })
				if cw != ch {
					t.Fatalf("op %d: RunUntil wheel=%v heap=%v", i, cw, ch)
				}
			}
			diffCompare(t, i, w, h)
		}
		w.k.RunAll()
		h.k.RunAll()
		diffCompare(t, len(data), w, h)
	})
}

// schedulePanic invokes ScheduleAt and returns the recovered panic message
// ("" when no panic occurred).
func schedulePanic(k schedKernel, at Time, fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	k.ScheduleAt(at, fn)
	return ""
}
