// Package enginetest checks an accel.Engine against the snapshot contract
// that buffer reuse in the gateway relies on: SaveState appends the
// snapshot to the slice it is given, fills a slice with room without
// allocating, and LoadState copies its input, so the caller may refill the
// same per-slot buffer at the next swap.
package enginetest

import (
	"slices"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/sim"
)

// warmup is how many probe words drive the engine into a non-trivial state
// before the snapshot; probeLen is how many follow it.
const warmup, probeLen = 23, 40

// word is input n of the probe signal: a complex sample whose phase and
// amplitude keep moving, so mixers, discriminators and filters all change
// state with every word.
func word(n int) sim.Word {
	return sim.PackIQ(int32(n*997%20000-10000), int32(7000-n*1231%14000))
}

// CheckSnapshot drives e through a warm-up and checks the contract:
//
//   - SaveState(buf[:0]) appends exactly SaveState(nil), StateWords long,
//     and SaveState keeps what its argument already holds;
//   - SaveState into a buffer with room does not allocate;
//   - LoadState copies: overwriting the loaded slice afterwards changes
//     neither the engine's state nor its next outputs.
//
// Engines whose output depends on a lifetime counter outside the snapshot
// (fault injectors) must be built with no fault inside the first
// warmup+2·probeLen words.
func CheckSnapshot(t testing.TB, e accel.Engine) {
	t.Helper()
	for n := 0; n < warmup; n++ {
		e.Process(word(n), nil)
	}
	snap := e.SaveState(nil)
	if len(snap) != e.StateWords() {
		t.Fatalf("SaveState gave %d words, StateWords says %d", len(snap), e.StateWords())
	}
	buf := make([]uint64, 3, e.StateWords()+8)
	for i := range buf {
		buf[i] = 0xdead
	}
	if got := e.SaveState(buf[:0]); !slices.Equal(got, snap) {
		t.Fatalf("SaveState(buf[:0]) = %v, want %v", got, snap)
	}
	if got := e.SaveState([]uint64{0xfeed}); got[0] != 0xfeed || !slices.Equal(got[1:], snap) {
		t.Fatalf("SaveState([0xfeed]) = %v, want 0xfeed then %v", got, snap)
	}
	if a := testing.AllocsPerRun(50, func() { buf = e.SaveState(buf[:0]) }); a != 0 {
		t.Fatalf("SaveState into a buffer with room allocates %v per call", a)
	}

	want := probe(e) // the outputs that follow the snapshot
	loaded := slices.Clone(snap)
	if err := e.LoadState(loaded); err != nil {
		t.Fatal(err)
	}
	for i := range loaded {
		loaded[i] = ^loaded[i]
	}
	if got := e.SaveState(nil); !slices.Equal(got, snap) {
		t.Fatalf("overwriting the loaded slice changed the engine's state to %v, want %v", got, snap)
	}
	if got := probe(e); !slices.Equal(got, want) {
		t.Fatalf("outputs after reload diverge from the first run: %v, want %v", got, want)
	}
}

// probe feeds the probe words that follow the warm-up and returns the
// outputs.
func probe(e accel.Engine) []sim.Word {
	var out []sim.Word
	for n := warmup; n < warmup+probeLen; n++ {
		out = e.Process(word(n), out)
	}
	return out
}
