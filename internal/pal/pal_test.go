package pal

import (
	"math"
	"testing"

	"accelshare/internal/sim"
)

func TestParamsValidation(t *testing.T) {
	p := DefaultParams()
	p.Blocks[0] = 9831 // not a multiple of 8
	if _, err := Build(p); err == nil {
		t.Fatal("non-multiple block accepted")
	}
	p = DefaultParams()
	p.Blocks[2] = 0
	if _, err := Build(p); err == nil {
		t.Fatal("zero block accepted")
	}
	// A negative or non-finite length would make the source endless and
	// the callers' horizon conversion wrap to ~2^64 cycles.
	for _, secs := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		p = DefaultParams()
		p.Seconds = secs
		if _, err := Build(p); err == nil {
			t.Errorf("seconds %v accepted", secs)
		}
	}
}

func TestRates(t *testing.T) {
	p := DefaultParams()
	if got := p.FrontendRate(); got != 44100*64 {
		t.Errorf("frontend rate = %v", got)
	}
	if got := p.IntermediateRate(); got != 44100*8 {
		t.Errorf("intermediate rate = %v", got)
	}
}

func TestFrontendSignalStructure(t *testing.T) {
	// The synthetic baseband must contain energy near both carriers.
	p := DefaultParams()
	fe := NewFrontend(p)
	n := 1 << 13
	var is []int32
	for k := 0; k < n; k++ {
		i, _ := sim.UnpackIQ(fe.Sample(uint64(k)))
		is = append(is, i)
	}
	fs := p.FrontendRate()
	// Complex carriers show up in the real part at |f|.
	p1 := GoertzelPower(is, math.Abs(p.Carrier1), fs)
	p2 := GoertzelPower(is, math.Abs(p.Carrier2), fs)
	off := GoertzelPower(is, 1.113e6, fs) // empty region
	if p1 < 100*off || p2 < 100*off {
		t.Errorf("carriers not prominent: p1=%g p2=%g off=%g", p1, p2, off)
	}
}

// privateWords is what a front end of its own, read once in order, yields
// for indices 0..n-1.
func privateWords(n int) []sim.Word {
	fe := NewFrontend(DefaultParams())
	out := make([]sim.Word, n)
	for i := range out {
		out[i] = fe.Sample(uint64(i))
	}
	return out
}

// TestFrontendSampleOncePerIndex: reading an index again returns the word
// already synthesised, and the modulators do not step for it.
func TestFrontendSampleOncePerIndex(t *testing.T) {
	want := privateWords(3)
	fe := NewFrontend(DefaultParams())
	for n, w := range want {
		for read := 0; read < 2; read++ {
			if got := fe.Sample(uint64(n)); got != w {
				t.Fatalf("read %d of index %d = %#x, want %#x", read, n, got, w)
			}
		}
	}
}

// TestFrontendSharedByLaggingReaders: two readers of one front end, the
// second reading every lag from 1 to the full window behind the first, each
// get exactly the words a private front end yields, across several window
// wraps.
func TestFrontendSharedByLaggingReaders(t *testing.T) {
	const n = 5*frontendWindow + 17
	want := privateWords(n)
	fe := NewFrontend(DefaultParams())
	read := func(who string, i int) {
		t.Helper()
		if got := fe.Sample(uint64(i)); got != want[i] {
			t.Fatalf("%s read index %d = %#x, want %#x", who, i, got, want[i])
		}
	}
	lead, lag := 0, 0
	for round := 0; lag < n; round++ {
		// The leader runs ahead by a lag that cycles through window..1; the
		// laggard then catches up part of the way, or all of it.
		ahead := frontendWindow - (round*37)%frontendWindow
		for lead < n && lead-lag < ahead {
			read("leader", lead)
			lead++
		}
		stop := lead - (round%3)*(lead-lag)/3
		for lag < stop {
			read("laggard", lag)
			lag++
		}
	}
}

// TestFrontendEvictedIndexPanics: a reader further behind than the window
// fails loudly instead of reading another index's word.
func TestFrontendEvictedIndexPanics(t *testing.T) {
	fe := NewFrontend(DefaultParams())
	fe.Sample(frontendWindow) // synthesises 0..window
	fe.Sample(1)              // the oldest index still held
	defer func() {
		if recover() == nil {
			t.Fatal("index 0 read back after it left the window")
		}
	}()
	fe.Sample(0)
}

// TestFrontendZeroAlloc is the testing.AllocsPerRun guard behind
// Frontend.Sample's //accellint:noalloc annotation: two readers, one a
// sample behind, read the shared front end without a heap allocation.
func TestFrontendZeroAlloc(t *testing.T) {
	fe := NewFrontend(DefaultParams())
	var n uint64
	if a := testing.AllocsPerRun(4, func() {
		for end := n + 3*frontendWindow; n < end; n++ {
			fe.Sample(n)
			if n > 0 {
				fe.Sample(n - 1)
			}
		}
	}); a != 0 {
		t.Fatalf("Frontend.Sample allocates %v per %d samples, want 0", a, 3*frontendWindow)
	}
}

func TestGoertzelAndRMS(t *testing.T) {
	// Pure tone: Goertzel at the tone >> elsewhere; RMS = amp/sqrt(2).
	const fs = 8000.0
	const f = 440.0
	var x []int32
	for n := 0; n < 4000; n++ {
		x = append(x, int32(10000*math.Sin(2*math.Pi*f*float64(n)/fs)))
	}
	on := GoertzelPower(x, f, fs)
	offp := GoertzelPower(x, 3*f+7, fs)
	if on < 1000*offp {
		t.Errorf("goertzel: on=%g off=%g", on, offp)
	}
	if r := RMS(x); math.Abs(r-10000/math.Sqrt2) > 100 {
		t.Errorf("rms = %v", r)
	}
	if RMS(nil) != 0 || GoertzelPower(nil, 1, 2) != 0 {
		t.Error("empty-input edge cases")
	}
}

// TestDecodeRecoversStereo is the paper's demonstrator end to end: the
// shared CORDIC + FIR chain decodes both audio channels in real time and
// the software task reconstructs L and R. The left tone must dominate the
// L output and the right tone the R output.
func TestDecodeRecoversStereo(t *testing.T) {
	if testing.Short() {
		t.Skip("full PAL decode is expensive")
	}
	p := DefaultParams()
	p.Seconds = 0.03
	d, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// 0.03 s at 100 MHz = 3M cycles; add margin for pipeline drain.
	d.Run(6_000_000)

	rep := d.Sys.Report()
	for _, sr := range rep.PerStream {
		if sr.Overflows != 0 {
			t.Errorf("stream %s dropped %d samples — real-time constraint missed", sr.Name, sr.Overflows)
		}
		if sr.Blocks == 0 {
			t.Errorf("stream %s never ran", sr.Name)
		}
	}
	if len(d.L) < 800 {
		t.Fatalf("only %d audio samples decoded", len(d.L))
	}
	// Skip the filter transient.
	l := d.L[200:]
	r := d.R[200:]
	lAtL := GoertzelPower(l, p.ToneL, p.AudioRate)
	lAtR := GoertzelPower(l, p.ToneR, p.AudioRate)
	rAtR := GoertzelPower(r, p.ToneR, p.AudioRate)
	rAtL := GoertzelPower(r, p.ToneL, p.AudioRate)
	t.Logf("L: tone@L %.3g, tone@R %.3g; R: tone@R %.3g, tone@L %.3g", lAtL, lAtR, rAtR, rAtL)
	t.Logf("decoded %d stereo samples; gateway streaming %.1f%%, reconfig %.1f%% of busy time",
		len(d.L), 100*rep.StreamingShare, 100*rep.ReconfigShare)
	if lAtL < 10*lAtR {
		t.Errorf("left channel does not isolate its tone: %g vs %g", lAtL, lAtR)
	}
	if rAtR < 10*rAtL {
		t.Errorf("right channel does not isolate its tone: %g vs %g", rAtR, rAtL)
	}
	if RMS(l) < 100 {
		t.Error("left channel is silence")
	}
}

func TestAnalysisModelVerifies(t *testing.T) {
	p := DefaultParams()
	sys := AnalysisModel(p)
	if err := sys.VerifyThroughput(); err != nil {
		t.Fatalf("default blocks fail Eq. 5: %v", err)
	}
	// The derived buffer bounds are what Build actually configures.
	in, out, err := analysisBufferBounds(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 4 || len(out) != 4 {
		t.Fatalf("bounds: %v %v", in, out)
	}
	// Stage-1 input ≈ 2 blocks (arrivals during γ̂ at full rate).
	if int64(in[0]) < 2*p.Blocks[0] || int64(in[0]) > 2*p.Blocks[0]+16 {
		t.Errorf("stage-1 input bound %d, want ≈ %d", in[0], 2*p.Blocks[0])
	}
	if int64(out[0]) != 2*p.Blocks[0]/int64(p.Decimation) {
		t.Errorf("stage-1 output bound %d", out[0])
	}
}

// TestEventCountPinned pins the events the §VI-A platform fires over a
// fixed horizon. The count is deterministic, so any change to the event
// schedule — a wake gated away, an event split in two — shows up here as a
// reviewed diff of this constant. Before the subscriber-gated wakes the
// same run fired 1,054,521 events, and 822,695 before uncontended ring words
// skipped their pump step and link credits left inside the NI pop.
func TestEventCountPinned(t *testing.T) {
	p := DefaultParams()
	p.Seconds = 0.01
	d, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	d.Run(1_000_000)
	if got, want := d.Sys.K.Processed, uint64(503_035); got != want {
		t.Errorf("%d events over 1M cycles, want %d", got, want)
	}
}
