package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"accelshare/internal/cfifo"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// TestReclaimSlotsReusesCapacity: with Config.ReclaimSlots a departed
// stream's ring attachment points return to its chain's reserve pool, so a
// bounded slot table serves an unbounded sequence of sequential lifetimes.
// Without the flag AttachStream permanently consumes a reserved node pair
// per admission, capping the chain at ReserveSlots lifetimes — the exact
// failure mode the sustained serving campaign exists to rule out.
func TestReclaimSlotsReusesCapacity(t *testing.T) {
	// Four strictly sequential lifetimes through a two-slot chain: each
	// stream departs long before the next arrives, so only slot-table
	// capacity (never utilisation) can reject an arrival.
	run := func(reclaim bool) *Controller {
		cfg := testConfig([]ChainSpec{{Name: "c0", AccelCost: 1, ReserveSlots: 2}})
		cfg.ReclaimSlots = reclaim
		c := mustCluster(t, cfg)
		for i, at := range []sim.Time{1_000, 30_000, 60_000, 90_000} {
			name := fmt.Sprintf("s%d", i)
			submitAt(c, at, StreamRequest{Name: name, Period: 150})
			if i < 3 {
				departAt(c, at+15_000, name)
			}
		}
		c.Run(130_000)
		return c
	}

	capped := run(false)
	if got := len(eventsOf(capped, EvArrive)); got != 2 {
		t.Errorf("without reclaim: %d admissions, want 2 (slot table capped)", got)
	}
	if live := statusOf(capped, "s3"); live.State == "live" {
		t.Errorf("without reclaim: s3 is live, want rejected")
	}

	c := run(true)
	if got := len(eventsOf(c, EvArrive)); got != 4 {
		t.Errorf("with reclaim: %d admissions, want 4", got)
	}
	if got := len(eventsOf(c, EvReject)); got != 0 {
		t.Errorf("with reclaim: %d rejections, want 0", got)
	}
	for _, name := range []string{"s0", "s1", "s2"} {
		if ss := statusOf(c, name); ss.State != "departed" {
			t.Errorf("with reclaim: %s state=%s, want departed", name, ss.State)
		}
	}
	if ss := statusOf(c, "s3"); ss.State != "live" || ss.Chain != "c0" {
		t.Errorf("with reclaim: s3 state=%s chain=%s, want live on c0", ss.State, ss.Chain)
	}
	checkConformance(t, c, 100_000)
}

// departedRefs holds weak pointers to what a departed stream must not keep
// reachable once it has retired.
type departedRefs struct {
	st      weak.Pointer[mpsoc.Stream]
	in, out weak.Pointer[cfifo.FIFO]
	gw      weak.Pointer[gateway.Stream]
}

// retiredOutputs is what a stream's outputs were when the retire observer
// saw it: once the observer returns, that storage serves the next stream.
type retiredOutputs struct {
	n          int
	contiguous bool
}

// TestDepartedStreamsAreCollected: with ReclaimSlots, a departed stream's
// *mpsoc.Stream, both its C-FIFOs and its *gateway.Stream become garbage
// once it has retired, and StreamStatuses reports the values the stream
// held when it retired, as if it had stayed reachable. s1 departs from the
// chain it was placed on; the stream the rebalancer moves from c0 to c1
// departs after the move re-pointed its input's consumer and its output's
// producer.
func TestDepartedStreamsAreCollected(t *testing.T) {
	// run plays the scenario of TestRebalanceMovesHotStream with slot
	// reclamation and two departures. It returns the fleet, weak pointers
	// into both departed streams and, with keep set, the streams
	// themselves, held so that they stay reachable, and their outputs as
	// the retire observer saw them.
	run := func(keep bool) (*Controller, map[string]departedRefs, map[string]*mpsoc.Stream, map[string]retiredOutputs) {
		cfg := testConfig([]ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4},
		})
		cfg.Rebalance = rebalanceConfig(40_000, 60_000)
		cfg.ReclaimSlots = true
		c := mustCluster(t, cfg)
		refs := map[string]departedRefs{}
		kept := map[string]*mpsoc.Stream{}
		seen := map[string]retiredOutputs{}
		if keep {
			c.ms.SetRetireObserver(func(st *mpsoc.Stream) {
				seen[st.GW.Name] = retiredOutputs{len(st.Outputs), contiguous(st.Outputs)}
				c.retired(st)
			})
		}
		grab := func(name string) {
			st := c.streams[name].st
			refs[name] = departedRefs{weak.Make(st), weak.Make(st.In), weak.Make(st.Out), weak.Make(st.GW)}
			if keep {
				kept[name] = st
			}
		}
		submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
		submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
		submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
		c.k.ScheduleAt(20_000, func() { grab("s1") })
		departAt(c, 25_000, "s1")
		c.k.ScheduleAt(70_000, func() {
			moved := ladderOf(c, "rebalance")
			if len(moved) != 1 || moved[0].To != "c1" {
				t.Fatalf("rebalance steps %+v, want one move to c1:\n%s", moved, renderEvents(c))
			}
			grab(moved[0].Stream)
			c.Depart(moved[0].Stream)
		})
		c.Run(120_000)
		return c, refs, kept, seen
	}

	c, refs, _, _ := run(false)
	if len(refs) != 2 {
		t.Fatalf("%d departed streams tracked, want 2", len(refs))
	}
	runtime.GC()
	for name, r := range refs {
		if si := c.streams[name]; !si.departed || si.st != nil {
			t.Errorf("%s: departed %v, registry still holds its stream %v", name, si.departed, si.st != nil)
		}
		for what, live := range map[string]bool{
			"*mpsoc.Stream":      r.st.Value() != nil,
			"input *cfifo.FIFO":  r.in.Value() != nil,
			"output *cfifo.FIFO": r.out.Value() != nil,
			"*gateway.Stream":    r.gw.Value() != nil,
		} {
			if live {
				t.Errorf("%s: its %s is still reachable after the stream retired", name, what)
			}
		}
	}

	held, _, kept, seen := run(true)
	for name, st := range kept {
		out := seen[name]
		want := StreamStatus{
			Name: name, State: "departed", Priority: c.streams[name].priority,
			Blocks: st.GW.Blocks, Samples: st.GW.SamplesOut, Overflow: st.Overflows,
			ContiguousOutputs: out.contiguous,
		}
		if want.Blocks == 0 || want.Samples == 0 || out.n == 0 || !want.ContiguousOutputs {
			t.Errorf("%s: %d blocks, %d samples, %d outputs at retirement, contiguous %v: the stream never ran cleanly",
				name, want.Blocks, want.Samples, out.n, want.ContiguousOutputs)
		}
		if st.Outputs != nil {
			t.Errorf("%s: holds %d outputs after it retired, want none: its storage serves the next stream", name, len(st.Outputs))
		}
		if got := statusOf(held, name); got != want {
			t.Errorf("%s: status %+v, want the stream's own final values %+v", name, got, want)
		}
		if got := statusOf(c, name); got != want {
			t.Errorf("%s: status once collected %+v, want %+v", name, got, want)
		}
	}
}
