package accel_test

import (
	"slices"
	"testing"

	"accelshare/internal/pal"
)

// TestDataPathZeroAllocPAL is the testing.AllocsPerRun guard behind the
// //accellint:noalloc annotations on the tile's service path and the
// configuration bus: the §VI-A PAL platform — Mixer, FIR and Discriminator
// engines behind one gateway pair, four streams, decimation by 8 — runs
// without a heap allocation once warm. Every window spans a block boundary,
// so engine swaps (SaveState into the slot buffers, LoadState back) and the
// reconfiguration transfer are inside the measurement, next to the per-word
// entry-DMA, tile and exit-DMA events.
func TestDataPathZeroAllocPAL(t *testing.T) {
	p := pal.DefaultParams()
	p.Seconds = 0 // endless front-end
	d, err := pal.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	k := d.Sys.K
	d.Sys.Pair.Start()
	// Warm up over two full rotations (four blocks each), so every stream's
	// engines have been swapped out and back and every buffer sits at its
	// high-water mark.
	k.Run(2_000_000)
	// The decoded audio is the application's output and grows with the run;
	// give it room for the measured windows up front.
	d.L = slices.Grow(d.L, 1<<12)
	d.R = slices.Grow(d.R, 1<<12)
	blocks := d.Sys.Pair.Snapshot()
	const window = 250_000 // longer than one block's service (~185k cycles)
	if a := testing.AllocsPerRun(8, func() { k.Run(k.Now() + window) }); a != 0 {
		t.Fatalf("PAL data path allocates %v per %d-cycle window, want 0", a, window)
	}
	served := 0
	for i, s := range d.Sys.Pair.Snapshot() {
		served += int(s.Blocks - blocks[i].Blocks)
	}
	if served < 8 {
		t.Fatalf("only %d blocks served during the measured windows; the guard missed the block boundaries", served)
	}
	for _, sr := range d.Sys.Report().PerStream {
		if sr.Overflows != 0 {
			t.Fatalf("stream %s dropped %d samples", sr.Name, sr.Overflows)
		}
	}
	if len(d.L) == 0 {
		t.Fatal("no audio decoded")
	}
}
