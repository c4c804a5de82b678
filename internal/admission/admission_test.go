package admission

import (
	"math/big"
	"strings"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/conformance"
	"accelshare/internal/core"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/ilp"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// The test scenario (ClockHz 1, so samples/second == samples/cycle):
//
//	chain: one accelerator (ρA=1), ε=15, δ=1  →  c0 = 15
//	s1..s4: μ = 1/75, Rs = 50               →  u = 4·(15/75) = 0.8
//
// Algorithm 1 for the initial set: 75η ≥ 200 + 15·(4(η+2)) ⇒ 15η ≥ 320
// ⇒ η = 22, τ̂ = 50 + 24·15 = 410, γ̂ = 4·410 = 1640 (22·75 = 1650 ≥ 1640,
// deliberately tight). InputBufferBound = 22 + ⌈1640/75⌉ = 44.
//
// Adding s5 (μ = 1/300, Rs = 50): u = 0.85, least fixed point
// η = (36,36,36,36,9), γ̂ = 4·620 + 215 = 2695, survivor input bound 72.
//
// A sixth 1/75 stream pushes u to 1.05: infeasible.
const (
	entryCost = 15
	rsCycles  = 50
	period    = 75
)

func demoModel(names []string, rates []*big.Rat) *core.System {
	sys := &core.System{
		Chain: core.Chain{
			Name:       "demo",
			AccelCosts: []uint64{1},
			EntryCost:  entryCost,
			ExitCost:   1,
			NICapacity: 2,
		},
		ClockHz: 1,
	}
	for i := range names {
		sys.Streams = append(sys.Streams, core.Stream{
			Name: names[i], Rate: new(big.Rat).Set(rates[i]), Reconfig: rsCycles,
		})
	}
	return sys
}

type bed struct {
	ms    *mpsoc.MultiSystem
	ctrl  *Controller
	model *core.System
}

// buildBed assembles the running 4-stream platform plus its controller.
func buildBed(t *testing.T, faults *fault.Plan, reserve, inCap int) *bed {
	t.Helper()
	rate := big.NewRat(1, period)
	model := demoModel(
		[]string{"s1", "s2", "s3", "s4"},
		[]*big.Rat{rate, rate, rate, rate},
	)
	if _, err := model.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	var specs []mpsoc.StreamSpec
	for i := range model.Streams {
		specs = append(specs, mpsoc.StreamSpec{
			Name:         model.Streams[i].Name,
			Block:        model.Streams[i].Block,
			Decimation:   1,
			Reconfig:     rsCycles,
			InCapacity:   inCap,
			OutCapacity:  inCap,
			SourcePeriod: period,
			Engines:      []accel.Engine{&accel.Gain{}},
		})
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{
		Chains: []mpsoc.ChainSpec{{
			Name:              "demo",
			EntryCost:         entryCost,
			ExitCost:          1,
			Mode:              gateway.ReconfigFixed,
			Accels:            []mpsoc.AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
			Streams:           specs,
			DrainTimeout:      200,
			Recovery:          recoveryCfg(),
			Faults:            faults,
			RecordTurnarounds: true,
			ReserveSlots:      reserve,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ms, Config{
		Chain:       0,
		Model:       model,
		PerSlotCost: 10,
		Engines:     func(string) []accel.Engine { return []accel.Engine{&accel.Gain{}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ms.Chains[0].Pair.Start()
	return &bed{ms: ms, ctrl: ctrl, model: model}
}

func addReq(name string, num, den int64, inCap, outCap int, srcPeriod sim.Time) AddRequest {
	return AddRequest{
		Spec: mpsoc.StreamSpec{
			Name:         name,
			Decimation:   1,
			Reconfig:     rsCycles,
			InCapacity:   inCap,
			OutCapacity:  outCap,
			SourcePeriod: srcPeriod,
			Engines:      []accel.Engine{&accel.Gain{}},
		},
		Rate: big.NewRat(num, den),
	}
}

func (b *bed) hasEvent(kind EventKind, stream string) bool {
	for _, e := range b.ctrl.Events() {
		if e.Kind == kind && e.Stream == stream {
			return true
		}
	}
	return false
}

// checkBounds asserts every block of every live stream that became
// ELIGIBLE after `since` met the current model's τ̂ and γ̂, via the shared
// conformance harness. Blocks queued before `since` may span a mode
// transition; those are covered by the transition-cost bound
// (Verdict.BoundCycles), not by the new γ̂ — hence FilterQueued.
func (b *bed) checkBounds(t *testing.T, since sim.Time) {
	t.Helper()
	bounds, err := conformance.FromModel(b.ctrl.Model())
	if err != nil {
		t.Fatal(err)
	}
	var streams []*gateway.Stream
	for _, st := range b.ctrl.chain().Strs {
		streams = append(streams, st.GW)
	}
	res := conformance.FromStreams(bounds, streams, conformance.Options{
		// After is exclusive; the original contract includes blocks queued
		// exactly at `since`.
		After: since - 1, FilterQueued: true, MinBlocks: 1,
	})
	if err := res.Err(); err != nil {
		t.Error(err)
	}
}

// TestAddStreamLifecycle is the acceptance scenario: on a running
// 4-stream platform, admit a 5th stream mid-run; a deterministic fault
// quarantines s2, which is then readmitted through a canary block; every
// admitted stream meets its Eq. 2/Eq. 4 bounds after each transition, and
// an infeasible 6th request is rejected with a reasoned verdict.
func TestAddStreamLifecycle(t *testing.T) {
	// LoseIdle swallows s2's pipeline-idle notification for block 8 three
	// times: stall → retry, stall → retry, stall → quarantine
	// (RetryLimit 2). The budget is then spent, so the post-readmission
	// canary's own notification gets through.
	b := buildBed(t, &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.LoseIdle, Stream: 1, Block: 8, Count: 3},
	}}, 2, 128)
	k := b.ms.K

	k.Run(3000)

	// --- Admit s5 mid-run. ---
	var v5 *Verdict
	b.ctrl.AddStream(addReq("s5", 1, 300, 64, 64, 300), func(v Verdict) { v5 = &v })
	if !k.RunUntil(60_000, func() bool { return v5 != nil }) {
		t.Fatal("s5 verdict never arrived")
	}
	if !v5.Accepted {
		t.Fatalf("s5 rejected: %s %s", v5.Reason, v5.Detail)
	}
	want := []BlockAssignment{{"s1", 36}, {"s2", 36}, {"s3", 36}, {"s4", 36}, {"s5", 9}}
	if len(v5.Blocks) != len(want) {
		t.Fatalf("assignment %v", v5.Blocks)
	}
	for i, a := range v5.Blocks {
		if a != want[i] {
			t.Fatalf("assignment[%d] = %v, want %v", i, a, want[i])
		}
	}
	// The exact fixed point must be the optimum of the paper's ILP over
	// the five admitted streams.
	oracle := b.ctrl.Model()
	mu := make([]*big.Rat, len(oracle.Streams))
	for i := range mu {
		mu[i] = oracle.RatePerCycle(i)
	}
	ilpBlocks, err := ilp.BlockSizes(mu, oracle.Chain.C0(), oracle.C1(), nil, 0)
	if err != nil {
		t.Fatalf("ILP oracle: %v", err)
	}
	for i, a := range v5.Blocks {
		if a.Block != ilpBlocks[i] {
			t.Fatalf("assignment %v != ILP oracle %v", v5.Blocks, ilpBlocks)
		}
	}
	if uint64(v5.PauseWait)+v5.BusCycles > v5.BoundCycles {
		t.Errorf("transition cost %d+%d exceeds its bound %d", v5.PauseWait, v5.BusCycles, v5.BoundCycles)
	}
	admitted := k.Now()
	// Two settle rotations, then everything must be inside the new bounds.
	k.Run(admitted + 2*2695)
	settled := k.Now()

	// --- The fault quarantines s2. ---
	if !k.RunUntil(settled+200_000, func() bool { return b.hasEvent(EvQuarantine, "s2") }) {
		t.Fatal("s2 never quarantined")
	}
	if got := len(b.ctrl.Model().Streams); got != 4 {
		t.Fatalf("model has %d streams after quarantine, want 4", got)
	}

	// --- Readmit s2 via a canary block. ---
	var vr *Verdict
	b.ctrl.Readmit("s2", func(v Verdict) { vr = &v })
	if !k.RunUntil(k.Now()+60_000, func() bool { return vr != nil }) {
		t.Fatal("readmit verdict never arrived")
	}
	if !vr.Accepted {
		t.Fatalf("readmit rejected: %s %s", vr.Reason, vr.Detail)
	}
	if !k.RunUntil(k.Now()+60_000, func() bool { return b.hasEvent(EvCanaryPass, "s2") }) {
		t.Fatalf("canary never passed; events:\n%s", FormatEvents(b.ctrl.Events()))
	}
	if got := len(b.ctrl.Model().Streams); got != 5 {
		t.Fatalf("model has %d streams after readmission, want 5", got)
	}
	readmitted := k.Now()
	k.Run(readmitted + 2*2695)
	// Steady state after the last transition: strict Eq. 2/Eq. 4 check.
	since := k.Now()
	k.Run(since + 3*2695)
	b.checkBounds(t, since)

	// --- The infeasible 6th stream is rejected with a reasoned verdict. ---
	var v6 *Verdict
	b.ctrl.AddStream(addReq("s6", 1, period, 64, 64, period), func(v Verdict) { v6 = &v })
	if v6 == nil {
		t.Fatal("infeasible verdict must be immediate")
	}
	if v6.Accepted || v6.Reason != ReasonInfeasible {
		t.Fatalf("s6 verdict = %+v, want infeasible rejection", v6)
	}

	// No live stream ever dropped a sample: the periodic sources always
	// found FIFO space, through every transition. (s2's source kept
	// producing while the stream was quarantined, so it may overflow —
	// that is the fault's real-time damage, not the controller's.)
	for _, st := range b.ms.Chains[0].Strs {
		if st.Spec.Name == "s2" {
			continue
		}
		if st.Overflows != 0 {
			t.Errorf("stream %s dropped %d samples", st.Spec.Name, st.Overflows)
		}
	}

	// The event log tells the whole story in order.
	log := FormatEvents(b.ctrl.Events())
	for _, want := range []string{"add s5: admitted", "quarantine s2", "readmit s2: admitted", "canary-pass s2", "add s6: rejected (infeasible)"} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestRemoveStreamShrinksAndReadmits: removing a stream re-solves the
// survivors down to smaller blocks (lower latency); readmitting the
// removed stream brings it back through a canary and restores its source.
func TestRemoveStreamShrinksAndReadmits(t *testing.T) {
	b := buildBed(t, nil, 0, 128)
	k := b.ms.K
	k.Run(5000)

	var vr *Verdict
	b.ctrl.RemoveStream("s4", func(v Verdict) { vr = &v })
	if !k.RunUntil(30_000, func() bool { return vr != nil }) {
		t.Fatal("remove verdict never arrived")
	}
	if !vr.Accepted {
		t.Fatalf("remove rejected: %s %s", vr.Reason, vr.Detail)
	}
	// 3 streams: 75η ≥ 150 + 45(η+2)/... ⇒ 30η ≥ 240 ⇒ η = 8.
	for _, a := range vr.Blocks {
		if a.Block != 8 {
			t.Fatalf("survivor blocks %v, want all 8", vr.Blocks)
		}
	}
	snaps := b.ms.Chains[0].Pair.Snapshot()
	if !snaps[3].Suspended {
		t.Error("removed slot not suspended")
	}
	for i := 0; i < 3; i++ {
		if snaps[i].Block != 8 {
			t.Errorf("slot %d block %d, want 8", i, snaps[i].Block)
		}
	}
	// The removed stream's source is stopped: its FIFO level stays put.
	lvl := b.ms.Chains[0].Strs[3].In.Len()
	k.Run(k.Now() + 3*period)
	if got := b.ms.Chains[0].Strs[3].In.Len(); got != lvl {
		t.Errorf("removed stream's source still producing (%d -> %d)", lvl, got)
	}
	settled := k.Now()
	k.Run(settled + 3*600) // γ̂(3 streams) = 600
	b.checkBounds(t, settled)

	var vb *Verdict
	b.ctrl.Readmit("s4", func(v Verdict) { vb = &v })
	if !k.RunUntil(k.Now()+30_000, func() bool { return vb != nil }) {
		t.Fatal("readmit verdict never arrived")
	}
	if !vb.Accepted {
		t.Fatalf("readmit rejected: %s %s", vb.Reason, vb.Detail)
	}
	if !k.RunUntil(k.Now()+30_000, func() bool { return b.hasEvent(EvCanaryPass, "s4") }) {
		t.Fatalf("canary never passed; events:\n%s", FormatEvents(b.ctrl.Events()))
	}
	// Back to the 4-stream assignment.
	if got := len(b.ctrl.Model().Streams); got != 4 {
		t.Fatalf("model has %d streams, want 4", got)
	}
	start := k.Now()
	k.Run(start + 4*1640)
	b.checkBounds(t, start)
}

// TestCanaryFailRollsBack: readmitting a still-faulty stream fails its
// canary block; the gateway re-quarantines it and the controller rolls the
// survivors back to their previous configuration.
func TestCanaryFailRollsBack(t *testing.T) {
	// Budget 10 ≫ RetryLimit+1: the canary's notification is lost too.
	b := buildBed(t, &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.LoseIdle, Stream: 1, Block: 8, Count: 10},
	}}, 0, 128)
	k := b.ms.K
	if !k.RunUntil(200_000, func() bool { return b.hasEvent(EvQuarantine, "s2") }) {
		t.Fatal("s2 never quarantined")
	}
	var vr *Verdict
	b.ctrl.Readmit("s2", func(v Verdict) { vr = &v })
	if !k.RunUntil(k.Now()+60_000, func() bool { return vr != nil }) {
		t.Fatal("readmit verdict never arrived")
	}
	if !vr.Accepted {
		t.Fatalf("readmit rejected: %s %s", vr.Reason, vr.Detail)
	}
	if !k.RunUntil(k.Now()+120_000, func() bool { return b.hasEvent(EvRollback, "s2") }) {
		t.Fatalf("no rollback; events:\n%s", FormatEvents(b.ctrl.Events()))
	}
	if !b.hasEvent(EvCanaryFail, "s2") {
		t.Error("canary failure not recorded")
	}
	if got := len(b.ctrl.Model().Streams); got != 3 {
		t.Fatalf("model has %d streams after rollback, want 3", got)
	}
	snap := b.ms.Chains[0].Pair.Snapshot()[1]
	if !snap.Quarantined || snap.Probation {
		t.Fatalf("s2 snapshot %+v, want re-quarantined and off probation", snap)
	}
	// The survivors keep running inside their bounds.
	settled := k.Now()
	k.Run(settled + 4*1640)
	b.checkBounds(t, settled)
	// The stream is parked again: a second readmission attempt is legal.
	var v2 *Verdict
	b.ctrl.Readmit("s2", func(v Verdict) { v2 = &v })
	if !k.RunUntil(k.Now()+60_000, func() bool { return v2 != nil }) {
		t.Fatal("second readmit verdict never arrived")
	}
	if !v2.Accepted {
		t.Fatalf("second readmit rejected: %s %s", v2.Reason, v2.Detail)
	}
}

// TestRequestsGatedWhileCanaryPending: between a readmission and its
// canary outcome the controller may still have to roll the survivors back
// to the assignment captured at readmission time, so adds and removes
// must not change the model underneath that captured rollback.
func TestRequestsGatedWhileCanaryPending(t *testing.T) {
	b := buildBed(t, nil, 1, 128)
	k := b.ms.K
	k.Run(5000)

	var vr *Verdict
	b.ctrl.RemoveStream("s4", func(v Verdict) { vr = &v })
	if !k.RunUntil(30_000, func() bool { return vr != nil }) || !vr.Accepted {
		t.Fatalf("remove failed: %+v", vr)
	}
	var vb *Verdict
	b.ctrl.Readmit("s4", func(v Verdict) { vb = &v })
	if !k.RunUntil(k.Now()+30_000, func() bool { return vb != nil }) || !vb.Accepted {
		t.Fatalf("readmit failed: %+v", vb)
	}
	if b.hasEvent(EvCanaryPass, "s4") {
		t.Fatal("canary resolved before the gate could be exercised")
	}
	// The probe is pending: adds and removes are rejected busy, immediately.
	var va *Verdict
	b.ctrl.AddStream(addReq("s5", 1, 300, 64, 64, 300), func(v Verdict) { va = &v })
	if va == nil || va.Accepted || va.Reason != ReasonBusy {
		t.Fatalf("add during canary: %+v", va)
	}
	var vx *Verdict
	b.ctrl.RemoveStream("s3", func(v Verdict) { vx = &v })
	if vx == nil || vx.Accepted || vx.Reason != ReasonBusy {
		t.Fatalf("remove during canary: %+v", vx)
	}
	// Once the canary resolves, requests flow again.
	if !k.RunUntil(k.Now()+60_000, func() bool { return b.hasEvent(EvCanaryPass, "s4") }) {
		t.Fatalf("canary never passed; events:\n%s", FormatEvents(b.ctrl.Events()))
	}
	var v2 *Verdict
	b.ctrl.AddStream(addReq("s5", 1, 300, 64, 64, 300), func(v Verdict) { v2 = &v })
	if !k.RunUntil(k.Now()+60_000, func() bool { return v2 != nil }) {
		t.Fatal("post-canary add verdict never arrived")
	}
	if !v2.Accepted {
		t.Fatalf("post-canary add rejected: %s %s", v2.Reason, v2.Detail)
	}
}

// TestRejectionReasons covers the machine-readable rejection taxonomy.
func TestRejectionReasons(t *testing.T) {
	b := buildBed(t, nil, 1, 48)
	k := b.ms.K
	k.Run(2000)

	verdict := func(fire func(done func(Verdict))) Verdict {
		var got *Verdict
		fire(func(v Verdict) { got = &v })
		if got == nil {
			t.Fatal("rejection verdict must be immediate")
		}
		return *got
	}

	v := verdict(func(d func(Verdict)) { b.ctrl.RemoveStream("nope", d) })
	if v.Accepted || v.Reason != ReasonUnknownStream {
		t.Errorf("remove unknown: %+v", v)
	}
	v = verdict(func(d func(Verdict)) { b.ctrl.Readmit("nope", d) })
	if v.Accepted || v.Reason != ReasonUnknownStream {
		t.Errorf("readmit unknown: %+v", v)
	}
	v = verdict(func(d func(Verdict)) { b.ctrl.Readmit("s1", d) })
	if v.Accepted || v.Reason != ReasonNotQuarantined {
		t.Errorf("readmit live: %+v", v)
	}
	v = verdict(func(d func(Verdict)) { b.ctrl.AddStream(addReq("s1", 1, 300, 64, 64, 300), d) })
	if v.Accepted || v.Reason != ReasonBadRequest {
		t.Errorf("duplicate name: %+v", v)
	}
	v = verdict(func(d func(Verdict)) {
		r := addReq("sx", 1, 300, 64, 64, 300)
		r.Rate = nil
		b.ctrl.AddStream(r, d)
	})
	if v.Accepted || v.Reason != ReasonBadRequest {
		t.Errorf("missing rate: %+v", v)
	}
	// u = 0.8 + 0.2 = 1.0: infeasible before any slot is consumed.
	v = verdict(func(d func(Verdict)) { b.ctrl.AddStream(addReq("sx", 1, period, 64, 64, period), d) })
	if v.Accepted || v.Reason != ReasonInfeasible {
		t.Errorf("infeasible add: %+v", v)
	}
	// Feasible in time, but the survivors' input FIFOs (48) are smaller
	// than the bound the grown blocks need (72): reject, don't break s1.
	v = verdict(func(d func(Verdict)) { b.ctrl.AddStream(addReq("s5", 1, 300, 64, 64, 300), d) })
	if v.Accepted || v.Reason != ReasonBufferBound {
		t.Errorf("buffer bound: %+v", v)
	}
	if !strings.Contains(v.Detail, "s1") {
		t.Errorf("buffer-bound detail %q does not name the constrained stream", v.Detail)
	}
	// All rejections landed in the event log; nothing was admitted.
	if got := len(b.ctrl.Model().Streams); got != 4 {
		t.Fatalf("model grew to %d streams on rejections", got)
	}
	if b.ms.Chains[0].ReservedSlots() != 1 {
		t.Error("a rejection consumed a reserved slot")
	}
}

// TestNoReservedSlot: a feasible request still fails without ring capacity.
func TestNoReservedSlot(t *testing.T) {
	b := buildBed(t, nil, 0, 128)
	b.ms.K.Run(1000)
	var got *Verdict
	b.ctrl.AddStream(addReq("s5", 1, 300, 64, 64, 300), func(v Verdict) { got = &v })
	if got == nil || got.Accepted || got.Reason != ReasonNoSlot {
		t.Fatalf("verdict %+v, want no-reserved-slot rejection", got)
	}
}

// TestScriptRoundTrip parses a campaign and checks rendering determinism
// at the API level (the CLI-level byte-compare lives in cmd/accelshare).
func TestScriptRoundTrip(t *testing.T) {
	script := `
# demo campaign
3000 add s5 rate=1/300 reconfig=50 incap=64 outcap=64 period=300
9000 remove s4
15000 readmit s4
`
	ops, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[0].Kind != OpAdd || ops[1].Kind != OpRemove || ops[2].Kind != OpReadmit {
		t.Fatalf("ops = %+v", ops)
	}
	if ops[0].Rate.Cmp(big.NewRat(1, 300)) != 0 || ops[0].InCap != 64 || ops[0].SourcePeriod != 300 {
		t.Fatalf("add op = %+v", ops[0])
	}

	run := func() string {
		b := buildBed(t, nil, 1, 128)
		if err := b.ctrl.Play(ops); err != nil {
			t.Fatal(err)
		}
		b.ms.K.Run(60_000)
		return FormatEvents(b.ctrl.Events())
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("replay diverged:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{"add s5: admitted", "remove s4: admitted", "readmit s4: admitted", "canary-pass s4"} {
		if !strings.Contains(first, want) {
			t.Errorf("log missing %q:\n%s", want, first)
		}
	}
}

// TestParseScriptErrors rejects malformed campaigns with line numbers.
func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"x add s rate=1/2",
		"10 explode s",
		"10 add s",
		"10 add s rate=0",
		"10 add s rate=1/2 bogus=3",
		"10 remove s extra",
		"20 add s rate=1/2\n10 remove s",
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("script %q accepted", bad)
		}
	}
}

func recoveryCfg() gateway.Recovery {
	return gateway.Recovery{Enabled: true, RetryLimit: 2}
}
