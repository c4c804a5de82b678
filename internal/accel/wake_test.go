package accel

import (
	"testing"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// Wake-gating tests: a tile takes its downstream credit and ring-space
// wakes only while it holds a refused word. Too loose a gate costs events
// on every credit and ring slot; too tight a gate strands a refused word.

// idleWakeCosts wires a tile's downstream link from node 1 into a sink at
// node 2, plus a second link sharing node 1's data-ring injection buffer.
// With attach false the tile never subscribes to the downstream link (the
// control). It returns the events that one credit return and one
// ring-space release at node 1 cost while the tile holds nothing.
func idleWakeCosts(t *testing.T, attach bool) (credit, space uint64) {
	t.Helper()
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tile := NewTile("acc", k, 1, 4)
	sink := sim.NewQueue("sink", 4)
	down := NewLink("down", k, net, 1, 2, 1, 1, sink)
	other := NewLink("other", k, net, 1, 2, 2, 2, sim.NewQueue("other", 4))
	if attach {
		tile.SetDownstream(down)
		if err := tile.SetEngine(Passthrough{}); err != nil {
			t.Fatal(err)
		}
	}
	// Spend a credit on the tile's link, as an earlier output would have.
	if !down.TrySend(1) {
		t.Fatal("send refused")
	}
	k.RunAll()
	before := k.Processed
	if _, ok := sink.TryPop(); !ok {
		t.Fatal("sink empty")
	}
	k.RunAll()
	credit = k.Processed - before
	before = k.Processed
	if !other.TrySend(2) {
		t.Fatal("send refused")
	}
	k.RunAll()
	space = k.Processed - before
	if attach && !tile.Idle() {
		t.Fatal("tile holds work")
	}
	return credit, space
}

func TestIdleTileTakesNoCreditOrRingSpaceWake(t *testing.T) {
	credit, space := idleWakeCosts(t, true)
	baseCredit, baseSpace := idleWakeCosts(t, false)
	if credit != baseCredit {
		t.Errorf("a credit return to an idle tile cost %d events, want %d (no tile step)", credit, baseCredit)
	}
	if space != baseSpace {
		t.Errorf("a ring-space release at an idle tile's node cost %d events, want %d (no tile step)", space, baseSpace)
	}
}

// sinkArrivals records the cycle of every word that reaches q.
func sinkArrivals(k *sim.Kernel, q *sim.Queue) *[]sim.Time {
	var at []sim.Time
	q.SubscribeData(sim.NewWaker(k, func() { at = append(at, k.Now()) }))
	return &at
}

// TestRefusedWordResumesOnCredit: a tile whose output was refused for lack
// of credits sends it in the cycle the credit returns. The cycles are the
// ones the ungated tile produced.
func TestRefusedWordResumesOnCredit(t *testing.T) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tile := NewTile("acc", k, 3, 4)
	up := NewLink("up", k, net, 0, 1, 1, 1, tile.In())
	sink := sim.NewQueue("sink", 1)
	tile.SetDownstream(NewLink("down", k, net, 1, 2, 1, 1, sink))
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	at := sinkArrivals(k, sink)
	up.TrySend(10)
	up.TrySend(11)
	k.Run(100)
	if sink.Len() != 1 || tile.Idle() || tile.Downstream().Credits() != 0 {
		t.Fatalf("sink holds %d words, tile idle %v, %d credits: want 1 delivered and 1 refused for lack of credits",
			sink.Len(), tile.Idle(), tile.Downstream().Credits())
	}
	if _, ok := sink.TryPop(); !ok {
		t.Fatal("sink empty")
	}
	k.RunAll()
	if want := []sim.Time{5, 102}; len(*at) != 2 || (*at)[0] != want[0] || (*at)[1] != want[1] {
		t.Fatalf("words reached the sink at %v, want %v", *at, want)
	}
	if !tile.Idle() {
		t.Error("tile still holds work")
	}
}

// TestRefusedWordResumesWhenWedgeLifts: a tile whose output was refused by
// a wedged link sends it in the cycle the wedge lifts.
func TestRefusedWordResumesWhenWedgeLifts(t *testing.T) {
	k, tile, up, sink := wireTile(t, 2)
	if err := tile.SetEngine(Passthrough{}); err != nil {
		t.Fatal(err)
	}
	at := sinkArrivals(k, sink)
	tile.Downstream().WedgeFor(40)
	up.TrySend(7)
	k.Run(39)
	if sink.Len() != 0 || tile.Idle() || tile.Downstream().WedgeRejects == 0 {
		t.Fatalf("sink holds %d words, tile idle %v, %d wedge rejects: want the word refused and held by the tile",
			sink.Len(), tile.Idle(), tile.Downstream().WedgeRejects)
	}
	k.RunAll()
	if want := sim.Time(41); len(*at) != 1 || (*at)[0] != want {
		t.Fatalf("word reached the sink at %v, want [%d]", *at, want)
	}
}
