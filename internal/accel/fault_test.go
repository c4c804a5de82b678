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
	tile := NewTile("acc", k, cost)
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
	// Fill the two-word NI: the first word enters service (cost 10) and the
	// second waits in the queue behind it.
	for i := 0; i < 2; i++ {
		if !up.TrySend(sim.Word(i)) {
			t.Fatalf("send %d refused", i)
		}
	}
	// Abort mid-sample, with the second word queued.
	k.Run(k.Now() + 7)
	if tile.Idle() || tile.In().Len() != 1 {
		t.Fatalf("tile should be mid-sample with one word queued (idle %v, queued %d)", tile.Idle(), tile.In().Len())
	}
	tile.Abort()
	if !tile.Idle() || tile.In().Len() != 0 {
		t.Fatal("tile not idle and empty after Abort")
	}
	if tile.Aborted != 2 {
		t.Errorf("aborted %d words, want the one in service and the one queued", tile.Aborted)
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
	k, tile, up, sink := wireTile(t, 10)
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	// Spend both credits of the two-word NI downstream of up.
	for i := 0; i < 2; i++ {
		if !up.TrySend(sim.Word(i)) {
			t.Fatalf("send %d refused", i)
		}
	}
	if up.credits != 0 {
		t.Fatalf("credits = %d after filling the NI", up.credits)
	}
	// Simulate a flush mid-sample: the queued word is cleared without a
	// pop, so its credit never returns.
	k.Run(k.Now() + 7)
	tile.Abort()
	up.dst.Clear()
	sink.Clear()
	k.RunAll()
	if up.credits == up.dst.Cap() {
		t.Fatal("the flush lost no credit")
	}
	up.Reset()
	if up.credits != up.dst.Cap() {
		t.Fatalf("credits = %d after Reset, want %d", up.credits, up.dst.Cap())
	}
	// Traffic flows normally after the reset, twice the NI's depth of it,
	// and credits return fully.
	for i := 0; i < 4; i++ {
		for !up.TrySend(sim.Word(i)) {
			if !k.Step() {
				t.Fatalf("post-reset send %d refused with nothing left to run", i)
			}
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
