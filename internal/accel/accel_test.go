package accel

import (
	"testing"

	"accelshare/internal/dsp"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

func TestPassthroughEngine(t *testing.T) {
	var p Passthrough
	out := p.Process(42, nil)
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("out = %v", out)
	}
	if p.StateWords() != 0 || len(p.SaveState(nil)) != 0 {
		t.Error("passthrough should be stateless")
	}
	if err := p.LoadState(nil); err != nil {
		t.Error(err)
	}
	if err := p.LoadState([]uint64{1}); err == nil {
		t.Error("non-empty state accepted")
	}
}

func TestGainEngineStateRoundTrip(t *testing.T) {
	g := &Gain{Shift: 2}
	out := g.Process(sim.PackIQ(3, -4), nil)
	i, q := sim.UnpackIQ(out[0])
	if i != 12 || q != -16 {
		t.Errorf("gain out = (%d,%d)", i, q)
	}
	g.Process(0, nil)
	st := g.SaveState(nil)
	g2 := &Gain{Shift: 2}
	if err := g2.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if g2.Count != 2 {
		t.Errorf("restored count = %d", g2.Count)
	}
	if err := g2.LoadState([]uint64{1, 2}); err == nil {
		t.Error("oversized state accepted")
	}
}

func TestMixerEngineMatchesDSP(t *testing.T) {
	e := NewMixer(1000, 100000)
	ref := dsp.NewMixer(1000, 100000)
	for n := 0; n < 50; n++ {
		in := sim.PackIQ(int32(1000+n), int32(-n))
		out := e.Process(in, nil)
		ri, rq := ref.Mix(int32(1000+n), int32(-n))
		oi, oq := sim.UnpackIQ(out[0])
		if oi != ri || oq != rq {
			t.Fatalf("n=%d: engine (%d,%d) vs dsp (%d,%d)", n, oi, oq, ri, rq)
		}
	}
}

func TestMixerStateRestoresPhaseExactly(t *testing.T) {
	a := NewMixer(12345, 1<<20)
	for n := 0; n < 37; n++ {
		a.Process(sim.PackIQ(1000, 0), nil)
	}
	st := a.SaveState(nil)
	b := NewMixer(12345, 1<<20)
	if err := b.LoadState(st); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20; n++ {
		oa := a.Process(sim.PackIQ(500, 250), nil)
		ob := b.Process(sim.PackIQ(500, 250), nil)
		if oa[0] != ob[0] {
			t.Fatalf("diverged at %d", n)
		}
	}
}

func TestDiscriminatorEngineState(t *testing.T) {
	a := NewDiscriminator()
	a.Process(sim.PackIQ(1000, 500), nil)
	a.Process(sim.PackIQ(500, 1000), nil)
	st := a.SaveState(nil)
	b := NewDiscriminator()
	if err := b.LoadState(st); err != nil {
		t.Fatal(err)
	}
	in := sim.PackIQ(-500, 1000)
	oa := a.Process(in, nil)
	ob := b.Process(in, nil)
	if oa[0] != ob[0] {
		t.Fatalf("outputs differ: %d vs %d", oa[0], ob[0])
	}
	if err := b.LoadState([]uint64{1, 2}); err == nil {
		t.Error("oversized state accepted")
	}
}

func TestFIREngineDecimates(t *testing.T) {
	coef := dsp.QuantizeQ15([]float64{1})
	e, err := NewFIR(coef, 4)
	if err != nil {
		t.Fatal(err)
	}
	outs := 0
	for n := 0; n < 16; n++ {
		out := e.Process(sim.PackIQ(int32(n), 0), nil)
		outs += len(out)
	}
	if outs != 4 {
		t.Errorf("outputs = %d, want 4", outs)
	}
	if e.StateWords() != 2 {
		t.Errorf("state words = %d", e.StateWords())
	}
}

// buildLinkPair wires src node 0 -> dst node 1 with a queue of capacity 2.
func buildLinkPair(t *testing.T) (*sim.Kernel, *Link, *sim.Queue) {
	t.Helper()
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := sim.NewQueue("dst", 2)
	l := NewLink("l", k, net, 0, 1, q)
	return k, l, q
}

func TestLinkCreditFlowControl(t *testing.T) {
	k, l, q := buildLinkPair(t)
	if l.Credits() != 2 {
		t.Fatalf("initial credits = %d", l.Credits())
	}
	if !l.TrySend(10) || !l.TrySend(11) {
		t.Fatal("sends with credits failed")
	}
	if l.TrySend(12) {
		t.Fatal("send without credit succeeded")
	}
	k.RunAll()
	if q.Len() != 2 {
		t.Fatalf("delivered %d", q.Len())
	}
	// Popping returns a credit to the sender.
	q.TryPop()
	k.RunAll()
	if l.Credits() != 1 {
		t.Fatalf("credits after pop = %d", l.Credits())
	}
	if !l.TrySend(12) {
		t.Fatal("send after credit return failed")
	}
	k.RunAll()
	if v, _ := q.TryPop(); v != 11 {
		t.Fatalf("order broken: %d", v)
	}
}

func TestLinkNeverOverflowsQueue(t *testing.T) {
	k, l, q := buildLinkPair(t)
	sent := 0
	for round := 0; round < 50; round++ {
		if l.TrySend(sim.Word(round)) {
			sent++
		}
		k.RunAll()
		if q.Len() > q.Cap() {
			t.Fatal("queue above capacity")
		}
		if round%3 == 0 {
			q.TryPop()
			k.RunAll()
		}
	}
	if sent == 0 {
		t.Fatal("nothing sent")
	}
}

func TestTileProcessesAtCost(t *testing.T) {
	k := sim.NewKernel()
	net, _ := ring.NewDual(k, 3, 1)
	tile := NewTile("acc", k, 5, 2)
	inLink := NewLink("in", k, net, 0, 1, tile.In())
	outQ := sim.NewQueue("out", 4)
	outLink := NewLink("out", k, net, 1, 2, outQ)
	tile.SetDownstream(outLink)
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for !inLink.TrySend(sim.Word(i)) {
			k.RunAll()
		}
		k.RunAll()
	}
	k.RunAll()
	var got []sim.Word
	for {
		w, ok := outQ.TryPop()
		if !ok {
			break
		}
		got = append(got, w)
		k.RunAll()
	}
	k.RunAll()
	for {
		w, ok := outQ.TryPop()
		if !ok {
			break
		}
		got = append(got, w)
		k.RunAll()
	}
	if len(got) != 4 {
		t.Fatalf("outputs = %v", got)
	}
	for i, w := range got {
		if w != sim.Word(i) {
			t.Fatalf("order: %v", got)
		}
	}
	if tile.Processed != 4 || tile.BusyCycles != 20 {
		t.Errorf("processed=%d busy=%d", tile.Processed, tile.BusyCycles)
	}
	if !tile.Idle() {
		t.Error("tile should be idle")
	}
}

func TestTileStallsWithoutEngine(t *testing.T) {
	k := sim.NewKernel()
	net, _ := ring.NewDual(k, 3, 1)
	tile := NewTile("acc", k, 1, 2)
	inLink := NewLink("in", k, net, 0, 1, tile.In())
	outQ := sim.NewQueue("out", 4)
	tile.SetDownstream(NewLink("out", k, net, 1, 2, outQ))
	inLink.TrySend(1)
	k.RunAll()
	if outQ.Len() != 0 {
		t.Fatal("engineless tile produced output")
	}
	if tile.Idle() {
		t.Error("queued word should make tile non-idle")
	}
	if err := tile.SetEngine(Passthrough{}); err == nil {
		t.Error("engine swap with queued data accepted")
	}
}

func TestTileBackpressureFromDownstream(t *testing.T) {
	// Downstream queue capacity 1, never drained: tile must stall after one
	// in-flight output and hold the rest.
	k := sim.NewKernel()
	net, _ := ring.NewDual(k, 3, 1)
	tile := NewTile("acc", k, 1, 4)
	inLink := NewLink("in", k, net, 0, 1, tile.In())
	outQ := sim.NewQueue("out", 1)
	tile.SetDownstream(NewLink("out", k, net, 1, 2, outQ))
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		inLink.TrySend(sim.Word(i))
		k.RunAll()
	}
	if outQ.Len() != 1 {
		t.Fatalf("downstream holds %d, want 1", outQ.Len())
	}
	if tile.Idle() {
		t.Error("stalled tile reported idle")
	}
}

func TestConfigBusSerialisation(t *testing.T) {
	k := sim.NewKernel()
	bus := NewConfigBus(k, 10, 2)
	var done []sim.Time
	bus.Transfer(5, func() { done = append(done, k.Now()) }) // 10+10 = 20
	bus.Transfer(0, func() { done = append(done, k.Now()) }) // +10 => 30
	bus.TransferCycles(7, func() { done = append(done, k.Now()) })
	k.RunAll()
	if len(done) != 3 || done[0] != 20 || done[1] != 30 || done[2] != 37 {
		t.Fatalf("completion times = %v", done)
	}
	if bus.Ops != 3 || bus.Cycles != 37 {
		t.Errorf("ops=%d cycles=%d", bus.Ops, bus.Cycles)
	}
}

func TestCICEngineDecimatesOnTile(t *testing.T) {
	e, err := NewCIC(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	outs := 0
	for n := 0; n < 32; n++ {
		out := e.Process(sim.PackIQ(1000, -500), nil)
		outs += len(out)
	}
	if outs != 8 {
		t.Fatalf("outputs = %d, want 8", outs)
	}
	if e.StateWords() != 9 {
		t.Errorf("state words = %d", e.StateWords())
	}
	st := e.SaveState(nil)
	e2, _ := NewCIC(2, 4)
	if err := e2.LoadState(st); err != nil {
		t.Fatal(err)
	}
	a := e.Process(sim.PackIQ(123, 456), nil)
	b := e2.Process(sim.PackIQ(123, 456), nil)
	if len(a) != len(b) {
		t.Fatal("restored engine diverges")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored engine output differs")
		}
	}
	if _, err := NewCIC(0, 4); err == nil {
		t.Error("invalid CIC accepted")
	}
}
