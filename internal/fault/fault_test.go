package fault

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/accel/enginetest"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

func process(e accel.Engine, n int) []sim.Word {
	var out []sim.Word
	for i := 0; i < n; i++ {
		out = e.Process(sim.Word(i), out)
	}
	return out
}

func TestWrapEnginesDropSample(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: DropSample, Stream: 0, Site: 0, Sample: 2}}}
	engines := p.WrapEngines(0, []accel.Engine{accel.Passthrough{}})
	out := process(engines[0], 5)
	if len(out) != 4 {
		t.Fatalf("output = %d words, want 4 (one dropped)", len(out))
	}
	// Sample index 2 is the missing one.
	want := []sim.Word{0, 1, 3, 4}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	if engines[0].(*Engine).Dropped != 1 {
		t.Errorf("Dropped = %d", engines[0].(*Engine).Dropped)
	}
}

func TestWrapEnginesDropCount(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: DropSample, Stream: 0, Site: 0, Sample: 1, Count: 3}}}
	engines := p.WrapEngines(0, []accel.Engine{accel.Passthrough{}})
	out := process(engines[0], 6)
	if len(out) != 3 {
		t.Fatalf("output = %d words, want 3 (three dropped)", len(out))
	}
}

func TestWrapEnginesCorruptSample(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: CorruptSample, Stream: 0, Site: 0, Sample: 1, Mask: 0xFF}}}
	engines := p.WrapEngines(0, []accel.Engine{accel.Passthrough{}})
	out := process(engines[0], 3)
	if len(out) != 3 {
		t.Fatalf("corruption changed word count: %d", len(out))
	}
	if out[1] != 1^0xFF {
		t.Errorf("corrupted word = %#x, want %#x", out[1], 1^0xFF)
	}
	if out[0] != 0 || out[2] != 2 {
		t.Errorf("untargeted words touched: %v", out)
	}
}

func TestWrapEnginesStickEngine(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: StickEngine, Stream: 0, Site: 0, Sample: 3}}}
	engines := p.WrapEngines(0, []accel.Engine{accel.Passthrough{}})
	out := process(engines[0], 10)
	if len(out) != 3 {
		t.Fatalf("stuck engine emitted %d words, want 3", len(out))
	}
}

func TestWrapEnginesTargetsOnlyMatchingStreamAndSite(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: DropSample, Stream: 1, Site: 1, Sample: 0}}}
	// Stream 0 untouched: engines returned unwrapped.
	for site, e := range p.WrapEngines(0, []accel.Engine{accel.Passthrough{}, accel.Passthrough{}}) {
		if _, wrapped := e.(*Engine); wrapped {
			t.Errorf("stream 0 site %d wrapped without a targeting fault", site)
		}
	}
	// Stream 1: only site 1 wrapped.
	engines := p.WrapEngines(1, []accel.Engine{accel.Passthrough{}, accel.Passthrough{}})
	if _, wrapped := engines[0].(*Engine); wrapped {
		t.Error("site 0 wrapped")
	}
	if _, wrapped := engines[1].(*Engine); !wrapped {
		t.Error("site 1 not wrapped")
	}
	if !p.EngineFaults(1) || p.EngineFaults(0) {
		t.Error("EngineFaults stream targeting wrong")
	}
}

// TestWrapperCounterSurvivesStateRestore is the retry-semantics contract: a
// block retry restores the engine's block-start state, but the fault
// wrapper's absolute sample counter must NOT rewind with it — a transient
// fault already consumed stays consumed, so the replay passes.
func TestWrapperCounterSurvivesStateRestore(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: DropSample, Stream: 0, Site: 0, Sample: 2}}}
	e := p.WrapEngines(0, []accel.Engine{&accel.Gain{}})[0]
	snap := e.SaveState(nil)
	if out := process(e, 4); len(out) != 3 {
		t.Fatalf("first attempt emitted %d, want 3", len(out))
	}
	// Abort-and-retry: restore block-start engine state, replay the block.
	if err := e.LoadState(snap); err != nil {
		t.Fatal(err)
	}
	if out := process(e, 4); len(out) != 4 {
		t.Fatalf("replay emitted %d, want 4 (transient fault must not refire)", len(out))
	}
}

// TestEngineSnapshotContract holds the fault wrapper to the snapshot
// contract: it forwards SaveState and LoadState to a stateful inner engine,
// with its one armed fault past the words the check feeds.
func TestEngineSnapshotContract(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: CorruptSample, Stream: 0, Site: 0, Sample: 1000}}}
	e := p.WrapEngines(0, []accel.Engine{accel.NewMixer(12345, 1<<20)})[0]
	if _, ok := e.(*Engine); !ok {
		t.Fatalf("WrapEngines returned %T, want the fault wrapper", e)
	}
	enginetest.CheckSnapshot(t, e)
}

func TestIdleDropper(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: LoseIdle, Stream: 1, Block: 2}}}
	drop := p.IdleDropper()
	if drop == nil {
		t.Fatal("IdleDropper = nil with a LoseIdle fault")
	}
	if drop(0, 2) || drop(1, 1) {
		t.Error("dropped a non-matching notification")
	}
	if !drop(1, 2) {
		t.Error("matching notification not dropped")
	}
	if drop(1, 2) {
		t.Error("budget (1) exceeded: second matching notification dropped")
	}
	if (&Plan{}).IdleDropper() != nil {
		t.Error("IdleDropper != nil on an empty plan")
	}
}

func TestArmWedgesLink(t *testing.T) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := sim.NewQueue("dst", 4)
	l := accel.NewLink("l", k, net, 0, 1, dst)
	p := &Plan{Faults: []Fault{{Kind: WedgeLink, Site: 0, At: 10, Duration: 20}}}
	if err := p.ArmWedges(k, []*accel.Link{l}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run(15)
	if !l.Wedged() {
		t.Error("link not wedged at t=15")
	}
	k.Run(40)
	if l.Wedged() {
		t.Error("link still wedged at t=40")
	}
}

func TestArmWedgesNode(t *testing.T) {
	k := sim.NewKernel()
	r, err := ring.New(k, ring.Config{Name: "r", Nodes: 3, HopLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Node(1).Bind(func(ring.Message) {})
	p := &Plan{Faults: []Fault{{Kind: WedgeNode, Site: 0, At: 5, Duration: 10}}}
	if err := p.ArmWedges(k, nil, r); err != nil {
		t.Fatal(err)
	}
	k.Run(8)
	if r.Node(0).TrySend(h, 1) {
		t.Error("wedged node accepted a send at t=8")
	}
	k.Run(30)
	if !r.Node(0).TrySend(h, 2) {
		t.Error("node still refusing at t=30")
	}
}

func TestArmWedgesValidation(t *testing.T) {
	k := sim.NewKernel()
	if err := (&Plan{Faults: []Fault{{Kind: WedgeLink, Site: 3}}}).ArmWedges(k, nil, nil); err == nil {
		t.Error("out-of-range link site accepted")
	}
	if err := (&Plan{Faults: []Fault{{Kind: WedgeNode, Site: 0}}}).ArmWedges(k, nil, nil); err == nil {
		t.Error("wedge-node without a ring accepted")
	}
	r, _ := ring.New(k, ring.Config{Name: "r", Nodes: 2, HopLatency: 1})
	if err := (&Plan{Faults: []Fault{{Kind: WedgeNode, Site: 9}}}).ArmWedges(k, nil, r); err == nil {
		t.Error("out-of-range node site accepted")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{DropSample, CorruptSample, StickEngine, WedgeLink, WedgeNode, LoseIdle}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Errorf("kind %d string %q", k, s)
		}
		seen[s] = true
	}
}
