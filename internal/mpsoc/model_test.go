package mpsoc

import (
	"math/big"
	"slices"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// TestLiveModelReadsThePlatform: a built chain's live model holds every
// slot that is neither quarantined, suspended nor a released tombstone, in
// slot order, each at the rate its source period gives, its spec's Rs and
// the block its slot runs. The chain holds all of these at once: s0
// quarantined by a stuck engine, s1 reclaimed (a tombstone), s2 suspended,
// s3 on probation, s4 reprogrammed to η 24 with a rational source period,
// and s5 attached at run time.
func TestLiveModelReadsThePlatform(t *testing.T) {
	periods := []sim.Time{75, 80, 90, 100, 300}
	cfg := faultPlatform(&fault.Plan{Faults: []fault.Fault{
		{Kind: fault.StickEngine, Stream: 0, Site: 0, Sample: 24},
	}}, gateway.Recovery{Enabled: true, RetryLimit: 2})
	ch := &cfg.Chains[0]
	ch.ReserveSlots = 1
	ch.Streams = nil
	for i, name := range []string{"s0", "s1", "s2", "s3", "s4"} {
		ch.Streams = append(ch.Streams, StreamSpec{
			Name: name, Block: 16, Decimation: 1, Reconfig: sim.Time(50 + i),
			InCapacity: 128, OutCapacity: 64, SourcePeriod: periods[i],
			Engines: []accel.Engine{&accel.Gain{}},
		})
	}
	ch.Streams[4].SourcePeriodDen = 2 // one sample every 150 cycles

	spec := ch.Model()
	if len(spec.Streams) != 5 || spec.ClockHz != 1 || spec.Chain.C0() != 15 {
		t.Fatalf("spec model %+v, want 5 streams at ClockHz 1 on c0 = 15", spec)
	}
	for i, s := range spec.Streams {
		if s.Block != 16 || s.Reconfig != uint64(50+i) {
			t.Errorf("spec entry %d = %+v, want block 16 and Rs %d", i, s, 50+i)
		}
	}

	ms, err := BuildMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, pair := ms.Chains[0], ms.Chains[0].Pair
	ms.Run(0)
	if !ms.K.RunUntil(100_000, func() bool { return pair.Snapshot()[0].Quarantined }) {
		t.Fatal("s0 never quarantined")
	}

	var model *core.System
	var slots []int
	var released, probation bool
	err = pair.RequestPause(func() {
		updates := []gateway.SlotUpdate{
			{Stream: 1, Suspend: true},
			{Stream: 2, Suspend: true},
			{Stream: 3, Probation: true},
			{Stream: 4, SetBlock: 24, SetOutBlock: 24},
		}
		if err := pair.ApplySlots(updates, 1, func() {
			if err := ms.ReclaimStream(0, "s1"); err != nil {
				t.Fatal(err)
			}
			s5 := ch.Streams[0]
			s5.Name, s5.Reconfig, s5.SourcePeriod = "s5", 60, 120
			if _, err := ms.AttachStream(0, s5); err != nil {
				t.Fatal(err)
			}
			model, slots = chain.LiveModel()
			released, probation = pair.Streams()[1].Released, pair.Streams()[3].Probation
			pair.Resume()
		}); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ms.K.Run(ms.K.Now() + 2_000)
	if model == nil {
		t.Fatal("the pause never came")
	}
	if !released || !probation {
		t.Fatal("fixture: s1 is not a tombstone or s3 not on probation")
	}

	if want := []int{3, 4, 5}; !slices.Equal(slots, want) {
		t.Fatalf("live slots %v, want %v", slots, want)
	}
	if model.ClockHz != 1 || !slices.Equal(model.Chain.AccelCosts, []uint64{1}) || model.Chain.EntryCost != 15 {
		t.Errorf("model chain %+v at ClockHz %d, want the chain's timing at 1", model.Chain, model.ClockHz)
	}
	want := []struct {
		name     string
		rate     *big.Rat
		reconfig uint64
		block    int64
	}{
		{"s3", big.NewRat(1, 100), 53, 16},
		{"s4", big.NewRat(1, 150), 54, 24},
		{"s5", big.NewRat(1, 120), 60, 16},
	}
	if len(model.Streams) != len(want) {
		t.Fatalf("live model has %d streams, want %d", len(model.Streams), len(want))
	}
	for i, w := range want {
		s := model.Streams[i]
		if s.Name != w.name || s.Rate.Cmp(w.rate) != 0 || s.Reconfig != w.reconfig || s.Block != w.block {
			t.Errorf("entry %d = {%s %s %d %d}, want {%s %s %d %d}", i,
				s.Name, s.Rate.RatString(), s.Reconfig, s.Block, w.name, w.rate.RatString(), w.reconfig, w.block)
		}
	}
}

// TestRateReadsTheSourcePeriod: μs is SourcePeriodDen/SourcePeriod reduced,
// a SourcePeriodDen of 0 means 1, and a source with no period has no rate. A
// warm Rat takes the rate without allocating.
func TestRateReadsTheSourcePeriod(t *testing.T) {
	for _, c := range []struct {
		period sim.Time
		den    uint64
		want   string
	}{
		{75, 0, "1/75"}, {75, 1, "1/75"}, {300, 2, "1/150"}, {9, 6, "2/3"}, {1, 5, "5"},
	} {
		ss := StreamSpec{SourcePeriod: c.period, SourcePeriodDen: c.den}
		if got := ss.Rate(new(big.Rat)); got.RatString() != c.want {
			t.Errorf("period %d/%d: rate %s, want %s", c.period, c.den, got.RatString(), c.want)
		}
	}
	if r := (&StreamSpec{}).Rate(new(big.Rat)); r != nil {
		t.Errorf("no source period: rate %s, want none", r.RatString())
	}
	ss, r := StreamSpec{SourcePeriod: 300, SourcePeriodDen: 2}, new(big.Rat)
	ss.Rate(r)
	if a := testing.AllocsPerRun(100, func() { ss.Rate(r) }); a != 0 {
		t.Errorf("Rate into a warm Rat: %v allocs, want 0", a)
	}
}
