package accel

import (
	"testing"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// wireTile builds kernel + dual ring + one tile with an upstream link from
// node 0 and a downstream link into a sink queue at node 2.
func wireTile(t *testing.T, cost sim.Time) (*sim.Kernel, *Tile, *Link, *sim.Queue) {
	t.Helper()
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tile := NewTile("acc", k, cost, 4)
	up := NewLink("up", k, net, 0, 1, tile.In())
	sink := sim.NewQueue("sink", 16)
	down := NewLink("down", k, net, 1, 2, sink)
	tile.SetDownstream(down)
	return k, tile, up, sink
}

func TestTileAbortDiscardsInFlightWork(t *testing.T) {
	k, tile, up, sink := wireTile(t, 10)
	g := &Gain{}
	if err := tile.SetEngine(g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !up.TrySend(sim.Word(i)) {
			t.Fatalf("send %d refused", i)
		}
	}
	// Let the first sample enter processing (cost 10), then abort mid-sample.
	k.Run(k.Now() + 7)
	if tile.Idle() {
		t.Fatal("tile should be mid-sample")
	}
	tile.Abort()
	if !tile.Idle() {
		t.Fatal("tile not idle after Abort")
	}
	if tile.Aborted == 0 {
		t.Error("aborted words not counted")
	}
	k.RunAll()
	// The aborted sample's completion event must be a no-op: the engine never
	// processed anything and nothing reached the sink.
	if g.Count != 0 {
		t.Errorf("engine processed %d samples after abort", g.Count)
	}
	if sink.Len() != 0 {
		t.Errorf("sink holds %d words after abort", sink.Len())
	}
	// The tile must still work after the flush.
	if !up.TrySend(sim.Word(9)) {
		t.Fatal("post-abort send refused")
	}
	k.RunAll()
	if g.Count != 1 || sink.Len() != 1 {
		t.Fatalf("post-abort processing broken: count=%d sink=%d", g.Count, sink.Len())
	}

	// Stale completion: a new word enters service after Abort and before the
	// aborted sample's completion fires. The word in service lives on the
	// tile, so the stale completion must leave it alone — it does nothing,
	// and the new word is processed exactly once.
	k, tile, up, sink = wireTile(t, 10)
	g = &Gain{}
	if err := tile.SetEngine(g); err != nil {
		t.Fatal(err)
	}
	if !up.TrySend(sim.Word(1)) {
		t.Fatal("send refused")
	}
	for tile.Processed == 0 && k.Step() {
	}
	staleAt := k.Now() + 10 // the aborted sample's completion
	k.Run(k.Now() + 5)
	tile.Abort()
	if !up.TrySend(sim.Word(7)) {
		t.Fatal("post-abort send refused")
	}
	for tile.Processed == 1 && k.Step() {
	}
	if k.Now() >= staleAt {
		t.Fatalf("new word entered service at %d, not before the stale completion at %d", k.Now(), staleAt)
	}
	k.Run(staleAt)
	if g.Count != 0 || tile.Idle() {
		t.Fatalf("stale completion acted: count=%d idle=%v", g.Count, tile.Idle())
	}
	k.RunAll()
	if g.Count != 1 || sink.Len() != 1 {
		t.Fatalf("new word processed %d times, %d words out, want 1 and 1", g.Count, sink.Len())
	}
	if w, _ := sink.TryPop(); w != 7 {
		t.Fatalf("sink got %d, want 7", w)
	}
}

func TestLinkWedgeForBlocksAndRecovers(t *testing.T) {
	k, tile, up, sink := wireTile(t, 1)
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	up.WedgeFor(50)
	if up.TrySend(1) {
		t.Fatal("wedged link accepted a send")
	}
	if up.WedgeRejects != 1 {
		t.Errorf("WedgeRejects = %d", up.WedgeRejects)
	}
	if !up.Wedged() {
		t.Error("Wedged() = false during wedge")
	}
	k.Run(60)
	if up.Wedged() {
		t.Error("Wedged() = true after expiry")
	}
	if !up.TrySend(2) {
		t.Fatal("send refused after wedge lifted")
	}
	k.RunAll()
	if sink.Len() != 1 {
		t.Fatalf("sink holds %d words", sink.Len())
	}
}

func TestLinkWedgePermanent(t *testing.T) {
	_, _, up, _ := wireTile(t, 1)
	up.WedgeFor(0)
	if up.TrySend(1) {
		t.Fatal("permanently wedged link accepted a send")
	}
	if !up.Wedged() {
		t.Error("permanent wedge not reported")
	}
}

func TestLinkWedgeWakesSubscribersOnLift(t *testing.T) {
	k, _, up, _ := wireTile(t, 1)
	woken := 0
	up.SubscribeCredits(sim.NewWaker(k, func() { woken++ }))
	up.WedgeFor(30)
	k.RunAll()
	if woken == 0 {
		t.Error("credit subscribers not woken when wedge lifted")
	}
}

func TestLinkResetRestoresCredits(t *testing.T) {
	k, tile, up, sink := wireTile(t, 1)
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	// Fill the chain so credits are spent: NI capacity 4 downstream of up.
	for i := 0; i < 4; i++ {
		up.TrySend(sim.Word(i))
	}
	if up.credits == up.dst.Cap() {
		t.Fatal("credits not spent")
	}
	k.RunAll()
	// Simulate a flush: clear the chain state, then reset the link.
	tile.Abort()
	up.dst.Clear()
	sink.Clear()
	up.Reset()
	if up.credits != up.dst.Cap() {
		t.Fatalf("credits = %d after Reset, want %d", up.credits, up.dst.Cap())
	}
	// Traffic flows normally after the reset and credits return fully.
	for i := 0; i < 4; i++ {
		if !up.TrySend(sim.Word(i)) {
			t.Fatalf("post-reset send %d refused", i)
		}
	}
	k.RunAll()
	if sink.Len() != 4 {
		t.Fatalf("sink holds %d words after reset traffic", sink.Len())
	}
	if up.credits != up.dst.Cap() {
		t.Fatalf("credits = %d after post-reset traffic drained", up.credits)
	}
}
