package fault

import (
	"testing"

	"accelshare/internal/sim"
)

func TestDoctorConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	cb := func(Verdict) {}
	if _, err := NewDoctor(k, DoctorConfig{Window: 0, StallLimit: 1}, cb); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewDoctor(k, DoctorConfig{Window: 100, StallLimit: 0}, cb); err == nil {
		t.Error("zero stall limit accepted")
	}
	if _, err := NewDoctor(k, DoctorConfig{Window: 100, StallLimit: 1}, nil); err == nil {
		t.Error("nil verdict callback accepted")
	}
}

// TestDoctorConvictsAcrossStreams: the wedged-chain signature is stalls
// SPREADING — the verdict needs both the stall count and the distinct-stream
// quorum inside the window, and it latches exactly once.
func TestDoctorConvictsAcrossStreams(t *testing.T) {
	k := sim.NewKernel()
	var verdicts []Verdict
	d, err := NewDoctor(k, DoctorConfig{Window: 1000, StallLimit: 3, DistinctStreams: 2},
		func(v Verdict) { verdicts = append(verdicts, v) })
	if err != nil {
		t.Fatal(err)
	}
	at := func(ts sim.Time, stream int) {
		k.ScheduleAt(ts, func() { d.NoteStall(stream) })
	}
	at(100, 0)
	at(200, 0)
	at(300, 0) // 3 stalls, 1 stream: count met, quorum not
	at(400, 1) // 4 stalls, 2 streams: verdict
	at(500, 2) // after the latch: ignored
	k.RunAll()
	if len(verdicts) != 1 {
		t.Fatalf("%d verdicts, want exactly 1 (latched)", len(verdicts))
	}
	v := verdicts[0]
	if v.At != 400 {
		t.Errorf("verdict at %d, want 400", v.At)
	}
	if len(v.Streams) != 2 || v.Streams[0] != 0 || v.Streams[1] != 1 {
		t.Errorf("verdict streams %v, want [0 1] in first-stall order", v.Streams)
	}
	if !d.decided {
		t.Error("doctor not latched")
	}
}

// TestDoctorWindowPrunes: stalls older than the window don't count — a slow
// trickle of per-stream retries never convicts the chain.
func TestDoctorWindowPrunes(t *testing.T) {
	k := sim.NewKernel()
	fired := false
	d, err := NewDoctor(k, DoctorConfig{Window: 500, StallLimit: 3, DistinctStreams: 1},
		func(Verdict) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range []sim.Time{100, 900, 1700, 2500} {
		k.ScheduleAt(ts, func() { d.NoteStall(i % 2) })
	}
	k.RunAll()
	if fired {
		t.Fatal("trickle of isolated stalls convicted the chain")
	}
	// Three stalls inside one window do convict.
	for _, ts := range []sim.Time{3000, 3100, 3200} {
		k.ScheduleAt(ts, func() { d.NoteStall(0) })
	}
	k.RunAll()
	if !fired {
		t.Fatal("burst within the window not convicted")
	}
}

// TestParseScriptFields pins the happy-path parse: kinds, defaults and
// key=value fields land where the fault engine expects them.
func TestParseScriptFields(t *testing.T) {
	plan, err := ParseScript(`
# campaign
100 stick-engine stream=1 site=0 sample=24
900 wedge-link site=0 dur=1500
900 wedge-node site=2
2000 drop-sample stream=0 site=0 sample=7 count=2
3000 corrupt-sample stream=2 site=0 sample=3 mask=0xff
4000 lose-idle stream=0 block=8 count=3
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 6 {
		t.Fatalf("%d faults parsed, want 6", len(plan.Faults))
	}
	f := plan.Faults[0]
	if f.At != 100 || f.Kind != StickEngine || f.Stream != 1 || f.Site != 0 || f.Sample != 24 {
		t.Errorf("stick-engine parsed as %+v", f)
	}
	f = plan.Faults[1]
	if f.Kind != WedgeLink || f.Site != 0 || f.Duration != 1500 {
		t.Errorf("wedge-link parsed as %+v", f)
	}
	f = plan.Faults[4]
	if f.Kind != CorruptSample || f.Mask != 0xff {
		t.Errorf("corrupt-sample parsed as %+v", f)
	}
	f = plan.Faults[5]
	if f.Kind != LoseIdle || f.Block != 8 || f.Count != 3 {
		t.Errorf("lose-idle parsed as %+v", f)
	}
}
