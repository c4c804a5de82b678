package admission

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"accelshare/internal/accel"
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
		s.Parked[name] = parkedString(p.slot, p.rate.RatString(), p.reconfig, p.decimation, p.quarantined)
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
}

func namesOf(v *Verdict) []string {
	var out []string
	for _, a := range v.Blocks {
		out = append(out, a.Name)
	}
	return out
}

// importReq is an AdmitMigrated request whose import attaches a fresh
// stream to a reserved ring slot: the slot plumbing of an adoption without a
// second chain to export from. imported counts Import calls.
func (b *bed) importReq(name string, imported *int) MigrateRequest {
	return MigrateRequest{
		Name: name, Rate: big.NewRat(1, 300), Reconfig: rsCycles, Decimation: 1,
		InCapacity: 64, OutCapacity: 64,
		Import: func() (int, error) {
			*imported++
			_, err := b.ms.AttachStream(0, mpsoc.StreamSpec{
				Name: name, Block: 1, Decimation: 1, Reconfig: rsCycles,
				InCapacity: 64, OutCapacity: 64, SourcePeriod: 300,
				Engines: []accel.Engine{&accel.Gain{}},
			})
			return len(b.ms.Chains[0].Strs) - 1, err
		},
	}
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
	var imported int
	cases := []struct {
		name    string
		reserve int
		// setup runs before the faulty block's first stall.
		setup   func(t *testing.T, b *bed)
		request func(b *bed, done func(Verdict))
		// want lists the re-issued request's assignment.
		want []string
	}{
		{
			name: "add", reserve: 1,
			request: func(b *bed, done func(Verdict)) { b.ctrl.AddStream(addReq("s5", 1, 300, 64, 64, 300), done) },
			want:    []string{"s1", "s3", "s4", "s5"},
		},
		{
			name: "migrate", reserve: 1,
			request: func(b *bed, done func(Verdict)) { b.ctrl.AdmitMigrated(b.importReq("s5", &imported), done) },
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
			b := buildBed(t, &fault.Plan{Faults: []fault.Fault{
				{Kind: fault.LoseIdle, Stream: 1, Block: 8, Count: 3},
			}}, tc.reserve, 128)
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
			imported = 0
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
			if imported != 0 {
				t.Error("aborted migration ran its import")
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
			if !b.ctrl.busy {
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
			t.Fatalf("no rollback-failed; events:\n%s", FormatEvents(b.ctrl.Events()))
		}
		if b.hasEvent(EvRollback, "s2") {
			t.Error("stale rollback applied")
		}
		last := b.ctrl.Events()[len(b.ctrl.Events())-1]
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
