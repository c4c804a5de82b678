package admission

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"accelshare/internal/fault"
	"accelshare/internal/mpsoc"
)

// ctrlState is the controller state a staged transition may change only on
// commit: the live model with its decimations and slot map, the parked set
// and the chain's reserved ring slots.
type ctrlState struct {
	Live     []liveStream
	Parked   map[string]string
	Reserved int
}

type liveStream struct {
	Name         string
	Block, Decim int64
	Slot         int
	Rate         string
	Reconfig     uint64
}

func parkedString(slot int, rate string, reconfig uint64, decim int64, quarantined bool) string {
	return fmt.Sprintf("slot=%d rate=%s rs=%d decim=%d quarantined=%v", slot, rate, reconfig, decim, quarantined)
}

func (b *bed) state() ctrlState {
	c := b.ctrl
	s := ctrlState{Parked: map[string]string{}, Reserved: c.chain().ReservedSlots()}
	for i, st := range c.model.Streams {
		s.Live = append(s.Live, liveStream{
			Name: st.Name, Block: st.Block, Decim: c.decim[i], Slot: c.gwSlot[i],
			Rate: st.Rate.RatString(), Reconfig: st.Reconfig,
		})
	}
	for name, p := range c.parked {
		spec := &c.chain().Strs[p.slot].Spec
		s.Parked[name] = parkedString(p.slot, spec.Rate(new(big.Rat)).RatString(), uint64(spec.Reconfig), spec.Decimation, p.quarantined)
	}
	return s
}

// quarantined is s with live stream name moved to the parked set the way
// the gateway's quarantine observer moves it: survivors keep their ηs.
func (s ctrlState) quarantined(t *testing.T, name string) ctrlState {
	t.Helper()
	out := ctrlState{Parked: map[string]string{}, Reserved: s.Reserved}
	for n, p := range s.Parked {
		out.Parked[n] = p
	}
	for _, ls := range s.Live {
		if ls.Name == name {
			out.Parked[name] = parkedString(ls.Slot, ls.Rate, ls.Reconfig, ls.Decim, true)
		} else {
			out.Live = append(out.Live, ls)
		}
	}
	if len(out.Live) == len(s.Live) {
		t.Fatalf("%s is not live", name)
	}
	return out
}

// checkUntouched asserts an aborted transition left the controller and the
// pair as the quarantine left them.
func (b *bed) checkUntouched(t *testing.T, want ctrlState) {
	t.Helper()
	if got := b.state(); !reflect.DeepEqual(got, want) {
		t.Errorf("state after abort\n got %+v\nwant %+v", got, want)
	}
	if b.ctrl.Busy() {
		t.Error("busy gate still held after the abort")
	}
	if b.ms.Chains[0].Pair.Paused() {
		t.Error("pair left paused after the abort")
	}
	b.checkRecordCleared(t)
}

// checkRecordCleared asserts that no transition is in flight and that the
// controller's transition records are zero: none holds a newcomer's spec
// with its engines and source, a migrant's stream and export, blocks or a
// done callback.
func (b *bed) checkRecordCleared(t *testing.T) {
	t.Helper()
	c := b.ctrl
	if c.plan != nil {
		t.Error("a transition is still in flight")
	}
	for _, rec := range []struct {
		name string
		v    any
	}{{"growth", c.grw}, {"removal", c.rem}, {"rollback", c.rb}} {
		if !reflect.ValueOf(rec.v).IsZero() {
			t.Errorf("%s record not cleared: %+v", rec.name, rec.v)
		}
	}
}

// TestTransitionRecordCleared: the in-flight transition lives in records
// the controller holds, and a transition's end zeroes them, so that they
// pin no departed stream's spec, engines or source, no migrant's stream or
// replay words, and no done callback. Here the end is the commit of each
// plan that adds or removes a stream; TestQuarantineDuringDrainAborts
// checks the records after each abort as superseded (checkUntouched), and
// TestRetargetReleasesStaleTransition after a Retarget.
func TestTransitionRecordCleared(t *testing.T) {
	b := buildBed(t, nil, 1, 128, donorChain(t, demoStream("m1", 300, 64, 64)))
	k := b.ms.K
	k.Run(3000)
	migrant := b.evacuate(t, 1)[0]
	for _, step := range []struct {
		what    string
		request func(done func(Verdict))
	}{
		{"add s5", func(done func(Verdict)) { b.ctrl.AddStream(addReq("s5", 600, 128, 128), done) }},
		{"migrate m1", func(done func(Verdict)) { b.ctrl.AdmitMigrated(migrant, done) }},
		{"remove s4", func(done func(Verdict)) { b.ctrl.RemoveStream("s4", done) }},
		{"readmit s4", func(done func(Verdict)) { b.ctrl.Readmit("s4", done) }},
	} {
		var v *Verdict
		step.request(func(vv Verdict) { v = &vv })
		if !k.RunUntil(k.Now()+60_000, func() bool { return v != nil }) || !v.Accepted {
			t.Fatalf("%s: %+v", step.what, v)
		}
		b.checkRecordCleared(t)
	}
}

func namesOf(v *Verdict) []string {
	var out []string
	for _, a := range v.Blocks {
		out = append(out, a.Name)
	}
	return out
}

// donorChain is a second chain like the demo chain, carrying specs: its
// streams are the migrants evacuate exports.
func donorChain(t *testing.T, specs ...mpsoc.StreamSpec) mpsoc.ChainSpec {
	t.Helper()
	chain := demoChain(t, specs, recoveryCfg())
	chain.Name, chain.Accels = "donor", []mpsoc.AccelSpec{{Name: "acc-d", Cost: 1}}
	return chain
}

// evacuate freezes chain ci, gates its streams' producers, waits out its
// drain timeout and exports every stream: one AdmitMigrated request per
// stream, as the fleet's evacuation makes them.
func (b *bed) evacuate(t *testing.T, ci int) []MigrateRequest {
	t.Helper()
	ch := b.ms.Chains[ci]
	if err := ch.Pair.FreezeForFailover(); err != nil {
		t.Fatal(err)
	}
	for _, st := range ch.Strs {
		st.In.BeginRepoint()
	}
	b.ms.K.Run(b.ms.K.Now() + ch.Spec.DrainTimeout)
	exports, err := ch.Pair.ExportStreams()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]MigrateRequest, len(exports))
	for i, e := range exports {
		reqs[i] = MigrateRequest{Stream: ch.Strs[i], Export: e}
	}
	ch.Strs = nil
	return reqs
}

// TestQuarantineDuringDrainAborts: a fault quarantine can land while a
// transition's pause is still draining — the in-flight block exhausts its
// retry budget mid-drain and the gateway shrinks the controller's model
// underneath the pending plan. Every staged transition (add, migrate,
// remove, readmit, canary rollback) must abort its stale plan untouched:
// verdict superseded, model, decimations, slot map, parked set and reserved
// slots exactly as the quarantine left them, busy gate released, pair
// resumed. A re-issued request decides against the new model.
func TestQuarantineDuringDrainAborts(t *testing.T) {
	var migrant MigrateRequest
	cases := []struct {
		name    string
		reserve int
		// donor, when set, is a second chain whose stream migrates.
		donor []mpsoc.StreamSpec
		// setup runs before the faulty block's first stall.
		setup   func(t *testing.T, b *bed)
		request func(b *bed, done func(Verdict))
		// want lists the re-issued request's assignment.
		want []string
	}{
		{
			name: "add", reserve: 1,
			request: func(b *bed, done func(Verdict)) { b.ctrl.AddStream(addReq("s5", 300, 64, 64), done) },
			want:    []string{"s1", "s3", "s4", "s5"},
		},
		{
			name: "migrate", reserve: 1, donor: []mpsoc.StreamSpec{demoStream("s5", 300, 64, 64)},
			setup:   func(t *testing.T, b *bed) { migrant = b.evacuate(t, 1)[0] },
			request: func(b *bed, done func(Verdict)) { b.ctrl.AdmitMigrated(migrant, done) },
			want:    []string{"s1", "s3", "s4", "s5"},
		},
		{
			name:    "remove",
			request: func(b *bed, done func(Verdict)) { b.ctrl.RemoveStream("s4", done) },
			want:    []string{"s1", "s3"},
		},
		{
			name: "readmit",
			setup: func(t *testing.T, b *bed) {
				var v *Verdict
				b.ctrl.RemoveStream("s4", func(vv Verdict) { v = &vv })
				if !b.ms.K.RunUntil(b.ms.K.Now()+30_000, func() bool { return v != nil }) || !v.Accepted {
					t.Fatalf("remove s4: %+v", v)
				}
			},
			request: func(b *bed, done func(Verdict)) { b.ctrl.Readmit("s4", done) },
			want:    []string{"s1", "s3", "s4"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var extra []mpsoc.ChainSpec
			if tc.donor != nil {
				extra = append(extra, donorChain(t, tc.donor...))
			}
			b := buildBed(t, &fault.Plan{Faults: []fault.Fault{
				{Kind: fault.LoseIdle, Stream: 1, Block: 8, Count: 3},
			}}, tc.reserve, 128, extra...)
			k := b.ms.K
			k.Run(3000)
			if tc.setup != nil {
				tc.setup(t, b)
			}
			// Run to s2's first stall: its faulty block is mid-recovery, so a
			// pause requested now drains through the remaining retries and the
			// quarantine lands before the pause callback can fire.
			pair := b.ms.Chains[0].Pair
			if !k.RunUntil(200_000, func() bool { return pair.Snapshot()[1].Stalls >= 1 }) {
				t.Fatal("s2 never stalled")
			}
			if b.hasEvent(EvQuarantine, "s2") {
				t.Fatal("quarantine already landed; the request must fire mid-recovery")
			}
			want := b.state().quarantined(t, "s2")
			slots := len(b.ms.Chains[0].Strs)
			var v *Verdict
			tc.request(b, func(vv Verdict) { v = &vv })
			if !k.RunUntil(k.Now()+60_000, func() bool { return v != nil }) {
				t.Fatal("verdict never arrived")
			}
			if !b.hasEvent(EvQuarantine, "s2") {
				t.Fatal("quarantine did not land during the drain")
			}
			if v.Accepted || v.Reason != ReasonSuperseded || v.Detail != "stream set changed during drain" {
				t.Fatalf("verdict %+v, want superseded rejection", v)
			}
			if len(b.ms.Chains[0].Strs) != slots {
				t.Error("the aborted transition attached or adopted a stream")
			}
			b.checkUntouched(t, want)

			var v2 *Verdict
			tc.request(b, func(vv Verdict) { v2 = &vv })
			if !k.RunUntil(k.Now()+60_000, func() bool { return v2 != nil }) {
				t.Fatal("re-issued verdict never arrived")
			}
			if !v2.Accepted {
				t.Fatalf("re-issued request rejected: %s %s", v2.Reason, v2.Detail)
			}
			if got := namesOf(v2); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("re-issued assignment %v, want %v", got, tc.want)
			}
			// Every slot runs the verdict's ηs. The readmitted s4 left with
			// the four-stream 22 and returns at the three-stream 8.
			snaps := b.ms.Chains[0].Pair.Snapshot()
			for _, a := range v2.Blocks {
				for _, sn := range snaps {
					if sn.Name == a.Name && sn.Block != a.Block {
						t.Errorf("slot %s runs eta %d, verdict %d", a.Name, sn.Block, a.Block)
					}
				}
			}
			// Everyone runs inside the re-solved bounds.
			settled := k.Now()
			k.Run(settled + 3*2695)
			b.checkBounds(t, settled)
		})
	}

	// The rollback after a failed canary drains like any transition, but the
	// platform serializes the canary's stall with the rollback's pause: the
	// canary fails at a block boundary, so the pause fires before any other
	// block can stall. The quarantine notice is therefore delivered straight
	// to the controller between the rollback's pause request and its
	// callback, as the gateway would deliver it.
	t.Run("rollback", func(t *testing.T) {
		b := buildBed(t, &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.LoseIdle, Stream: 1, Block: 8, Count: 10},
		}}, 0, 128)
		k := b.ms.K
		if !k.RunUntil(200_000, func() bool { return b.hasEvent(EvQuarantine, "s2") }) {
			t.Fatal("s2 never quarantined")
		}
		var want ctrlState
		pair := b.ms.Chains[0].Pair
		pair.SetCanaryHook(func(slot int, ok bool) {
			b.ctrl.onCanary(slot, ok)
			if ok {
				return
			}
			if b.ctrl.plan == nil {
				t.Fatal("the failed canary requested no rollback")
			}
			want = b.state().quarantined(t, "s3")
			b.ctrl.onQuarantine(2)
		})
		var vr *Verdict
		b.ctrl.Readmit("s2", func(v Verdict) { vr = &v })
		if !k.RunUntil(k.Now()+60_000, func() bool { return vr != nil }) || !vr.Accepted {
			t.Fatalf("readmit s2: %+v", vr)
		}
		if !k.RunUntil(k.Now()+120_000, func() bool { return b.hasEvent(EvRollbackFail, "s2") }) {
			t.Fatalf("no rollback-failed; events:\n%s", FormatEvents(b.log))
		}
		if b.hasEvent(EvRollback, "s2") {
			t.Error("stale rollback applied")
		}
		last := b.log[len(b.log)-1]
		if last.Kind != EvRollbackFail || last.Verdict == nil || last.Verdict.Reason != ReasonSuperseded ||
			last.Verdict.Detail != "stream set changed during drain" {
			t.Fatalf("last event %+v, want rollback-failed superseded", last)
		}
		b.checkUntouched(t, want)

		// A re-issued readmission of the canary stream solves against the
		// model the quarantine left.
		var v2 *Verdict
		b.ctrl.Readmit("s2", func(v Verdict) { v2 = &v })
		if !k.RunUntil(k.Now()+60_000, func() bool { return v2 != nil }) || !v2.Accepted {
			t.Fatalf("re-issued readmit: %+v", v2)
		}
		if got, want := namesOf(v2), []string{"s1", "s4", "s2"}; !reflect.DeepEqual(got, want) {
			t.Errorf("re-issued assignment %v, want %v", got, want)
		}
	})
}
