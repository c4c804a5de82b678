package mpsoc

import (
	"runtime"
	"testing"
	"weak"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// lateOutputConfig: one chain whose second stream's sink sits four data-ring
// hops past the exit gateway, while the pipeline-idle notification that
// closes a block travels two credit-ring hops to the entry gateway. At ten
// cycles a hop, a block's last output words are still on the ring when a
// pause granted at its boundary suspends the stream one bus cycle later.
func lateOutputConfig() MultiConfig {
	stream := func(name string, total uint64) StreamSpec {
		return StreamSpec{
			Name: name, Block: 8, Decimation: 1, Reconfig: 100,
			InCapacity: 24, OutCapacity: 24,
			Engines:        []accel.Engine{accel.Passthrough{}},
			SourcePeriod:   40,
			TotalInputs:    total,
			CollectOutputs: true,
		}
	}
	return MultiConfig{
		HopLatency: 10,
		Chains: []ChainSpec{{
			Name: "t", EntryCost: 15, ExitCost: 1, Mode: gateway.ReconfigFixed,
			Accels: []AccelSpec{{Name: "acc", Cost: 1}},
			// s0 runs one block; every later block is s1's.
			Streams: []StreamSpec{stream("s0", 8), stream("s1", 0)},
		}},
	}
}

// retiredStream is what a test keeps of a reclaimed stream: weak pointers
// to the objects that must become garbage once it retires.
type retiredStream struct {
	st      weak.Pointer[Stream]
	in, out weak.Pointer[cfifo.FIFO]
	gw      weak.Pointer[gateway.Stream]
}

func weakRefs(st *Stream) retiredStream {
	return retiredStream{weak.Make(st), weak.Make(st.In), weak.Make(st.Out), weak.Make(st.GW)}
}

// reachable reports which of r's objects are still reachable after a
// collection.
func (r retiredStream) reachable() []string {
	runtime.GC()
	var live []string
	if r.st.Value() != nil {
		live = append(live, "*mpsoc.Stream")
	}
	if r.in.Value() != nil {
		live = append(live, "input *cfifo.FIFO")
	}
	if r.out.Value() != nil {
		live = append(live, "output *cfifo.FIFO")
	}
	if r.gw.Value() != nil {
		live = append(live, "*gateway.Stream")
	}
	return live
}

// TestReclaimReadsLateOutputs: a stream reclaimed while words of its last
// block are still on the ring toward its sink retires only after the sink
// has read and acknowledged every one, so its final state counts them. The
// late words and their acknowledgements travel exactly as they did when a
// reclaimed stream stayed bound for the whole run: the kernel's event count
// and both rings' delivered words are the values measured then. Once
// retired, nothing on the platform keeps the stream, its C-FIFOs or its
// gateway slot reachable.
func TestReclaimReadsLateOutputs(t *testing.T) {
	ms, err := BuildMulti(lateOutputConfig())
	if err != nil {
		t.Fatal(err)
	}
	pair := ms.Chains[0].Pair
	var refs retiredStream
	var reclaimedAt, retiredAt sim.Time
	var readAtReclaim, written uint64
	type final struct {
		collected, outputs, acks uint64
		contiguous               bool
	}
	var got []final
	ms.SetRetireObserver(func(st *Stream) {
		retiredAt = ms.K.Now()
		got = append(got, final{st.collected, uint64(len(st.Outputs)), st.Out.AckMessages, st.Contiguous()})
	})
	ms.K.ScheduleAt(3_000, func() {
		err := pair.RequestPause(func() {
			err := pair.ApplySlots([]gateway.SlotUpdate{{Stream: 1, Suspend: true}}, 1, func() {
				st := ms.Chains[0].Strs[1]
				refs = weakRefs(st)
				readAtReclaim, written = st.collected, st.GW.SamplesOut
				if st.Out.Drained() {
					t.Errorf("s1's output drained by the reclaim at %d: no late word to read", ms.K.Now())
				}
				reclaimedAt = ms.K.Now()
				if err := ms.ReclaimStream(0, "s1"); err != nil {
					t.Errorf("ReclaimStream: %v", err)
				}
				pair.Resume()
			})
			if err != nil {
				t.Errorf("ApplySlots: %v", err)
			}
		})
		if err != nil {
			t.Errorf("RequestPause: %v", err)
		}
	})
	ms.Run(6_000)

	if reclaimedAt == 0 || len(got) != 1 {
		t.Fatalf("reclaimed at %d, retired %d times; want one reclaim and one retirement", reclaimedAt, len(got))
	}
	f := got[0]
	if retiredAt <= reclaimedAt || f.collected <= readAtReclaim {
		t.Errorf("retired at %d after the reclaim at %d with %d words read (%d at the reclaim): no late word read",
			retiredAt, reclaimedAt, f.collected, readAtReclaim)
	}
	if f.collected != written || f.outputs != written || f.acks != written || !f.contiguous {
		t.Errorf("retired having read %d words (%d collected, contiguous %v) and acked %d; the exit gateway wrote %d",
			f.collected, f.outputs, f.contiguous, f.acks, written)
	}
	// Measured on this scenario while a reclaimed stream stayed bound for
	// the whole run: 72 words written, 70 of them read by the reclaim.
	if ev, data, credit := ms.K.Processed, ms.Net.Data.DeliveredWords(), ms.Net.Credit.DeliveredWords(); ev != 1278 || data != 437 || credit != 170 {
		t.Errorf("%d events, %d data and %d credit words delivered; want 1278, 437 and 170", ev, data, credit)
	}
	if live := refs.reachable(); len(live) > 0 {
		t.Errorf("still reachable after the retirement: %v", live)
	}
}
