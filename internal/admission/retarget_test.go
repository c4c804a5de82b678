package admission

// Retarget: after a chain failover moves every stream to the standby pair,
// the admission controller must re-attach to the new chain — refresh its
// slot map and block sizes from the standby's slot table, drop any stale
// transition, and keep admitting/removing streams there.

import (
	"testing"

	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
)

// buildFailoverBed is buildBed plus an empty standby chain and a failover
// controller wired between the two.
func buildFailoverBed(t *testing.T) (*bed, *mpsoc.FailoverController) {
	t.Helper()
	b := buildBed(t, nil, 2, 128, mpsoc.ChainSpec{
		Name: "demo-b", EntryCost: entryCost, ExitCost: 1,
		Mode:    gateway.ReconfigFixed,
		Accels:  []mpsoc.AccelSpec{{Name: "acc-b", Cost: 1}},
		Standby: true, DrainTimeout: 200,
		Recovery:          recoveryCfg(),
		RecordTurnarounds: true,
		ReserveSlots:      2,
	})
	fc, err := mpsoc.NewFailover(b.ms, mpsoc.FailoverConfig{Primary: 0, Standby: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.ms.Chains[1].Pair.Start()
	return b, fc
}

func TestRetargetValidation(t *testing.T) {
	b, _ := buildFailoverBed(t)
	if err := b.ctrl.Retarget(0); err == nil {
		t.Error("retarget onto the current chain accepted")
	}
	if err := b.ctrl.Retarget(7); err == nil {
		t.Error("retarget out of range accepted")
	}
	// The standby carries no streams yet: every admitted slot is unmappable.
	if err := b.ctrl.Retarget(1); err == nil {
		t.Error("retarget onto a chain missing the admitted streams accepted")
	}
}

// TestRetargetAfterFailover: operator-triggered failover mid-run, Retarget,
// then the controller keeps working on the standby — removing one stream and
// admitting a new one, with bounds holding after each transition.
func TestRetargetAfterFailover(t *testing.T) {
	b, fc := buildFailoverBed(t)
	k := b.ms.K
	k.ScheduleAt(5_000, func() { fc.Trigger("operator") })
	k.Run(20_000)

	rec := fc.Record()
	if rec == nil {
		t.Fatal("failover never completed")
	}
	if rec.MeasuredCycles > rec.BoundCycles {
		t.Fatalf("failover cost %d > bound %d", rec.MeasuredCycles, rec.BoundCycles)
	}
	if err := b.ctrl.Retarget(1); err != nil {
		t.Fatal(err)
	}
	if !b.hasEvent(EvRetarget, "demo-b") {
		t.Error("retarget not recorded in the event log")
	}

	// The controller now manages the standby chain: run on, then remove s4
	// and admit a new stream there.
	k.Run(40_000)
	var removed, added *Verdict
	b.ctrl.RemoveStream("s4", func(v Verdict) { removed = &v })
	k.Run(60_000)
	if removed == nil || !removed.Accepted {
		t.Fatalf("remove s4 on the standby: %+v", removed)
	}
	b.ctrl.AddStream(addReq("s9", 300, 128, 128), func(v Verdict) { added = &v })
	k.Run(90_000)
	if added == nil || !added.Accepted {
		t.Fatalf("add s9 on the standby: %+v", added)
	}
	found := false
	for _, st := range b.ms.Chains[1].Strs {
		if st.Spec.Name == "s9" {
			found = true
		}
	}
	if !found {
		t.Error("s9 not built on the standby chain")
	}
	// Settle past the add's transition, then the new model's bounds hold.
	k.Run(140_000)
	b.checkBounds(t, 95_000)
}

// TestRetargetReleasesStaleTransition: a transition stranded on the failed
// primary must neither wedge the controller nor complete later. The freeze
// catches the add at one of two points: with its pause still pending, or
// with its slot transaction on the configuration bus. At both, Retarget
// drops it: the stranded add's done never fires, the in-flight record is
// cleared, and the next transition on the standby commits exactly once.
// The controller's pause and bus callbacks are bound once, so a stale
// completion would act on the next transition's record.
func TestRetargetReleasesStaleTransition(t *testing.T) {
	for _, tc := range []struct {
		name string
		// freeze reports whether the stranded add has reached its freeze
		// point; the pair is paused there once the bus transfer is in
		// flight.
		freeze func(b *bed) bool
		paused bool
	}{
		{"pause-pending", func(*bed) bool { return true }, false},
		{"bus-in-flight", func(b *bed) bool { return b.ms.Chains[0].Pair.Paused() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, fc := buildFailoverBed(t)
			k := b.ms.K
			k.Run(3_000)
			stranded := 0
			b.ctrl.AddStream(addReq("s5", 300, 128, 128), func(Verdict) { stranded++ })
			if !k.RunUntil(k.Now()+5_000, func() bool { return tc.freeze(b) }) {
				t.Fatal("the add never reached its freeze point")
			}
			pair := b.ms.Chains[0].Pair
			if !b.ctrl.Busy() || stranded != 0 {
				t.Fatalf("before the freeze: busy %v, %d verdicts; want a transition in flight", b.ctrl.Busy(), stranded)
			}
			if pair.Paused() != tc.paused {
				t.Fatalf("pair paused %v at the freeze, want %v", pair.Paused(), tc.paused)
			}
			if err := fc.Trigger("operator"); err != nil {
				t.Fatalf("trigger: %v", err)
			}
			k.Run(20_000)
			if fc.Record() == nil {
				t.Fatal("failover never completed")
			}
			if err := b.ctrl.Retarget(1); err != nil {
				t.Fatalf("retarget after a stale transition: %v", err)
			}
			b.checkRecordCleared(t)

			// The controller must accept new work on the standby, and the
			// stranded add must stay silent through it.
			var added []Verdict
			b.ctrl.AddStream(addReq("s6", 300, 128, 128), func(v Verdict) { added = append(added, v) })
			k.Run(80_000)
			if len(added) != 1 || !added[0].Accepted {
				t.Fatalf("add s6 after retarget: %d verdicts %+v, want one acceptance", len(added), added)
			}
			if stranded != 0 {
				t.Fatalf("the stranded add's done fired %d times after Retarget", stranded)
			}
			adds := 0
			for _, e := range b.log {
				if e.Kind == EvAdd {
					adds++
					if e.Stream != "s6" || !e.Verdict.Accepted {
						t.Errorf("logged %s", FormatEvent(e))
					}
				}
			}
			if adds != 1 {
				t.Fatalf("%d add events logged, want s6's commit alone:\n%s", adds, FormatEvents(b.log))
			}
			b.checkRecordCleared(t)
		})
	}
}
