package cluster

import (
	"fmt"
	"strings"
	"testing"

	"accelshare/internal/admission"
	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/sim"
)

// waitsOn names the chain the stream's pending transition waits on, "" for
// none.
func waitsOn(c *Controller, name string) string {
	if si := c.streams[name]; si != nil && si.pendingOn >= 0 {
		return c.chains[si.pendingOn].name
	}
	return ""
}

// runUntilWaiting advances the fleet until stream name waits on chain.
func runUntilWaiting(t *testing.T, c *Controller, until sim.Time, name, chain string) {
	t.Helper()
	if !c.System().K.RunUntil(until, func() bool { return waitsOn(c, name) == chain }) {
		t.Fatalf("%s never waited on %s by %d:\n%s", name, chain, until, renderEvents(c))
	}
}

// convict hands chain the doctor's wedged-chain verdict now.
func convict(c *Controller, chain string) {
	for _, ci := range c.chains {
		if ci.name == chain {
			c.onVerdict(ci, fault.Verdict{At: c.System().K.Now(), Reason: "convicted by the test"})
		}
	}
}

// checkAgreement fails unless each serving chain's admission model holds
// exactly the streams the registry reports live on it.
func checkAgreement(t *testing.T, c *Controller) {
	t.Helper()
	onChain := map[string]map[string]bool{}
	for _, ss := range c.StreamStatuses() {
		if ss.State == "live" {
			if onChain[ss.Chain] == nil {
				onChain[ss.Chain] = map[string]bool{}
			}
			onChain[ss.Chain][ss.Name] = true
		}
	}
	for _, ci := range c.chains {
		if ci.state != chainServing || ci.ctrl == nil {
			continue
		}
		model := ci.ctrl.Model()
		for i := range model.Streams {
			if name := model.Streams[i].Name; !onChain[ci.name][name] {
				t.Errorf("%s's model holds %s, which the registry reports %s", ci.name, name, statusOf(c, name).State)
			}
		}
		if len(model.Streams) != len(onChain[ci.name]) {
			t.Errorf("%s's model holds %d streams, the registry %d live on it", ci.name, len(model.Streams), len(onChain[ci.name]))
		}
	}
}

// eventsAbout renders the events that name stream.
func eventsAbout(c *Controller, stream string) []string {
	var out []string
	for _, e := range c.Events() {
		if e.Stream == stream {
			out = append(out, FormatEvent(e))
		}
	}
	return out
}

// shedFleet is TestShedAndReadmitOnHeal's fleet, with spares coming online
// at the given cycles: c0 wedges at 20k and, with no capacity anywhere,
// every stream parks until the first spare heals.
func shedFleet(t *testing.T, online ...sim.Time) *Controller {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	chains := []ChainSpec{{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge}}
	for i, at := range online {
		chains = append(chains, ChainSpec{Name: "sp" + string(rune('1'+i)), AccelCost: 1, ReserveSlots: 4, Spare: true, OnlineAt: at})
	}
	c := mustCluster(t, testConfig(chains))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75, Priority: 1})
	return c
}

// TestDepartDuringReadmissionWaits: a departure that arrives while the
// stream's readmission is pending waits for the verdict, like a departure
// during any other pending transition. It used to depart the stream as
// parked at once; the readmission then landed, and the stream ran on,
// held in the chain's model, while the registry reported it departed.
func TestDepartDuringReadmissionWaits(t *testing.T) {
	c := shedFleet(t, 60_000)
	c.Run(60_000)
	runUntilWaiting(t, c, 61_000, "s0", "sp1")
	c.Depart("s0")
	c.Run(140_000)

	if ss := statusOf(c, "s0"); ss.State != "departed" {
		t.Fatalf("s0 state %s, want departed:\n%s", ss.State, renderEvents(c))
	}
	var departs []string
	for _, e := range eventsAbout(c, "s0") {
		if strings.Contains(e, "depart ") {
			departs = append(departs, e)
		}
	}
	if len(departs) != 1 || !strings.Contains(departs[0], "sp1/s0") {
		t.Errorf("s0 departures %q, want one removal from sp1", departs)
	}
	checkAgreement(t, c)
}

// TestReadmissionTargetDies: a readmission pending on a chain that dies
// returns the stream to parked, export kept, and it keeps probing. It
// used to be re-placed as a new arrival, restarting from sample 0, while
// the registry still reported it parked.
func TestReadmissionTargetDies(t *testing.T) {
	c := shedFleet(t, 60_000, 60_001)
	c.Run(60_000)
	runUntilWaiting(t, c, 61_000, "s0", "sp2")
	convict(c, "sp2")
	c.Run(140_000)

	for _, e := range c.Events() {
		if e.Stream == "s0" && e.At >= 60_000 && (e.Kind == EvArrive || e.Kind == EvLost && strings.Contains(e.Detail, "re-placing")) {
			t.Errorf("s0 re-placed as an arrival: %s", FormatEvent(e))
		}
	}
	ss := statusOf(c, "s0")
	if ss.State != "live" || ss.Chain != "sp1" || !ss.ContiguousOutputs {
		t.Errorf("s0: state=%s chain=%s contiguous=%v, want live on sp1 with contiguous outputs:\n%s",
			ss.State, ss.Chain, ss.ContiguousOutputs, renderEvents(c))
	}
	if n := len(ladderOf(c, "readmit")); n != 3 {
		t.Errorf("readmit steps = %d, want 3:\n%s", n, renderEvents(c))
	}
	checkAgreement(t, c)
}

// TestEvacueeTargetDies: an evacuee whose target dies mid-admit parks with
// its export, readmission scheduled, and its evacuation moves on to the
// next evacuee. It used to be re-placed as a new arrival, and the
// evacuation never resumed: the rest of its queue stayed placing, in no
// model.
func TestEvacueeTargetDies(t *testing.T) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
		{Name: "c2", AccelCost: 1, ReserveSlots: 4},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
	c.Run(20_000)
	runUntilWaiting(t, c, 40_000, "r-c0", "c1")
	convict(c, "c1")
	c.Run(200_000)

	evacuated := 0
	for _, e := range eventsOf(c, EvEvacuated) {
		if e.Chain == "c0" {
			evacuated++
		}
	}
	if evacuated != 1 {
		t.Errorf("c0 evacuated %d times, want 1:\n%s", evacuated, renderEvents(c))
	}
	for _, ss := range c.StreamStatuses() {
		if ss.State != "live" {
			t.Errorf("%s: state=%s, want live:\n%s", ss.Name, ss.State, renderEvents(c))
		}
	}
	if ss := statusOf(c, "r-c0"); !ss.ContiguousOutputs || ss.Overflow != 0 {
		t.Errorf("r-c0: contiguous=%v overflow=%d, want its export resumed with no sample lost", ss.ContiguousOutputs, ss.Overflow)
	}
	checkAgreement(t, c)
}

// TestAbortedMoveIssuesDeferredDeparture: a departure that arrives while a
// rebalance removal is pending waits for it, and when the removal is
// refused the aborted move issues the departure. c0's resident loses its
// idle notifications from block 81 on, and its quarantine supersedes the
// 40k tick's removal of s0. The aborted move used to drop the departure,
// and s0 stayed live. (r-c0 stays quarantined, out of c0's model, so the
// registry/model agreement does not hold on this fleet.)
func TestAbortedMoveIssuesDeferredDeparture(t *testing.T) {
	lose := &fault.Plan{Faults: []fault.Fault{{Kind: fault.LoseIdle, Stream: 0, Block: 81, Count: 3}}}
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: lose},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	})
	cfg.Doctor.DistinctStreams = 2
	cfg.Rebalance = rebalanceConfig(40_000, 60_000)
	c := mustCluster(t, cfg)
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	departAt(c, 25_000, "s1")
	c.Run(39_999)
	runUntilWaiting(t, c, 41_000, "s0", "c0")
	c.Depart("s0")
	c.Run(80_000)

	want := []string{
		"[  40023] rebalance c0/s0        move aborted: superseded: stream set changed during drain",
		"[  40043] depart    c0/s0        wait=0 bound=240",
	}
	if got := eventsAbout(c, "s0")[1:]; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("s0 events after its arrival\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if ss := statusOf(c, "s0"); ss.State != "departed" {
		t.Errorf("s0 state %s, want departed", ss.State)
	}
}

// lifecycleEvents are the stimuli of the lifecycle table, in column order.
var lifecycleEvents = []string{
	"submit", "depart", "accepted", "refused", "stale verdict", "sync refusal",
	"conviction", "heal", "move start", "move abort", "budget spent",
}

// lifecycleTable is the stream lifecycle (DESIGN §8.1): the phase each
// event leaves a stream in, one column per lifecycleEvents entry. "+defer"
// marks a deferred departure and "panic" an event the phase never sees.
// The "+defer" rows hold a departure that arrived during the pending
// removal or readmission: an aborted move issues it, and so does a
// readmission that lands or ends.
var lifecycleTable = []struct {
	row  string
	want []string
}{
	{"placing", []string{"placing", "placing+defer", "live", "placing", "placing", "placing", "placing", "placing", "placing", "panic", "rejected"}},
	{"live", []string{"live", "departing", "live", "live", "live", "departing", "live", "live", "moving", "panic", "live"}},
	{"departing", []string{"departing", "departing+defer", "departed", "live", "departing", "departing", "live+defer", "departing", "departing", "panic", "departing"}},
	{"moving", []string{"moving", "moving+defer", "migrating", "live", "moving", "moving", "live", "moving", "moving", "live", "moving"}},
	{"moving+defer", []string{"moving+defer", "moving+defer", "migrating+defer", "departing", "moving+defer", "moving+defer", "live+defer", "moving+defer", "moving+defer", "departing", "moving+defer"}},
	{"migrating", []string{"migrating", "migrating+defer", "live", "migrating", "migrating", "migrating", "parked", "migrating", "migrating", "panic", "parked"}},
	{"parked", []string{"parked", "departed", "parked", "parked", "parked", "parked", "parked", "readmitting", "parked", "panic", "parked"}},
	{"readmitting", []string{"readmitting", "readmitting+defer", "live", "parked", "readmitting", "readmitting", "parked", "readmitting", "readmitting", "panic", "readmitting"}},
	{"readmitting+defer", []string{"readmitting+defer", "readmitting+defer", "departing", "departed", "readmitting+defer", "readmitting+defer", "departed", "readmitting+defer", "readmitting+defer", "panic", "readmitting+defer"}},
	{"departed", []string{"departed", "departed", "departed", "departed", "departed", "departed", "departed", "departed", "departed", "panic", "departed"}},
	{"rejected", []string{"rejected", "rejected", "rejected", "rejected", "rejected", "rejected", "rejected", "rejected", "rejected", "panic", "rejected"}},
}

// lifecycleFleet is the rebalance fleet (DESIGN §13) with an offline spare:
// s0 and s2 run on c0, s1 departs c1 at 25k, and the 40k tick moves s0 to
// c1.
func lifecycleFleet(t *testing.T) *Controller {
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
		{Name: "sp", AccelCost: 1, ReserveSlots: 4, Spare: true, OnlineAt: 10_000_000},
	})
	cfg.Rebalance = rebalanceConfig(40_000, 60_000)
	c := mustCluster(t, cfg)
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	departAt(c, 25_000, "s1")
	c.Run(30_000)
	return c
}

// holdAll holds every serving chain's arbitration, so each admission
// request is refused busy at once.
func holdAll(c *Controller) {
	for _, ci := range c.rankServing() {
		_ = c.ms.Chains[ci.idx].Pair.RequestPause(func() {})
	}
}

// reach drives a lifecycle fleet until its subject stream is in the row's
// phase, and returns the subject.
func reach(t *testing.T, c *Controller, row string) *streamInfo {
	t.Helper()
	k := c.System().K
	until := func(si *streamInfo, ok func() bool) *streamInfo {
		t.Helper()
		if !k.RunUntil(120_000, ok) {
			t.Fatalf("%s never reached %s; it is %s:\n%s", si.name, row, si.phase, renderEvents(c))
		}
		return si
	}
	s0 := c.streams["s0"]
	switch row {
	case "placing", "rejected":
		c.Submit(StreamRequest{Name: "s3", Period: 75})
		s3 := c.streams["s3"]
		if row == "rejected" {
			holdAll(c)
			c.place(s3, c.cfg.Retry.Limit)
		}
		return s3
	case "live":
		return s0
	case "departing", "departed":
		c.Depart("s0")
		return until(s0, func() bool { return s0.phase.String() == row })
	case "moving", "moving+defer":
		until(s0, func() bool { return s0.phase == moving })
		if row == "moving+defer" {
			c.Depart("s0")
		}
		return s0
	case "migrating":
		return until(s0, func() bool { return s0.phase == migrating && s0.pendingOn >= 0 })
	}
	// parked, readmitting: the victim of the 40k move finds both chains
	// held and sheds once its retry budget is spent.
	until(s0, func() bool { return s0.phase == migrating })
	holdAll(c)
	until(s0, func() bool { return s0.phase == parked })
	if row != "parked" {
		c.onHeal(c.chains[2])
		until(s0, func() bool { return s0.phase == readmitting })
	}
	if row == "readmitting+defer" {
		c.Depart("s0")
	}
	return s0
}

// apply hands si one lifecycle event.
func apply(c *Controller, si *streamInfo, event string) {
	// deliver hands si a verdict from chain tc through a pending attempt,
	// as the chain's admission controller does.
	deliver := func(tc *chainInfo, accepted bool) {
		a := c.newAttempt(si, tc, 0)
		a.pending = true
		a.verdict(admission.Verdict{Accepted: accepted, Reason: admission.ReasonSuperseded})
	}
	switch event {
	case "submit":
		c.Submit(StreamRequest{Name: si.name, Period: 75})
	case "depart":
		c.depart(si, 0)
	case "accepted", "refused":
		switch {
		case si.phase == moving && event == "accepted": // the removal's own callback
			c.System().K.RunUntil(120_000, func() bool { return si.phase != moving })
		case si.phase == moving:
			c.abortMove(&moveOp{si: si, composed: composed{from: c.chains[si.chain]}}, "refused")
		case si.pendingOn >= 0:
			deliver(c.chains[si.pendingOn], event == "accepted")
		default:
			deliver(c.chains[0], event == "accepted")
		}
	case "stale verdict": // from a chain si does not wait on
		if si.pendingOn == 0 {
			deliver(c.chains[1], true)
		} else {
			deliver(c.chains[0], true)
		}
	case "sync refusal":
		holdAll(c)
		switch si.phase {
		case placing:
			c.place(si, 0)
		case live:
			c.depart(si, 0)
		case migrating:
			c.placeMigrant(si.m, 0)
		case parked:
			c.tryReadmit(si, 0)
		}
	case "conviction":
		chain := 0
		if si.pendingOn >= 0 {
			chain = si.pendingOn
		} else if si.chain >= 0 {
			chain = si.chain
		}
		convict(c, c.chains[chain].name)
	case "heal":
		c.onHeal(c.chains[2])
		c.System().K.Run(c.System().K.Now() + 1)
	case "move start":
		from := c.chains[0]
		if si.chain >= 0 {
			from = c.chains[si.chain]
		}
		c.startMove(&moveOp{si: si, composed: composed{from: from}, to: c.chains[1]})
	case "move abort":
		c.abortMove(&moveOp{si: si, composed: composed{from: c.chains[0]}}, "aborted by the test")
	case "budget spent":
		limit := c.cfg.Retry.Limit
		switch si.phase {
		case placing:
			holdAll(c)
			c.place(si, limit)
		case live:
			c.departRefused(si, c.chains[si.chain], limit, admission.Verdict{Reason: admission.ReasonBusy})
		case migrating:
			c.backOffMigrant(si.m, limit, "budget")
		case parked:
			c.scheduleReadmit(si, limit)
		}
	}
}

// TestLifecycleTable walks every (phase, event) pair of the stream
// lifecycle on a real fleet and pins the phase each event leaves.
func TestLifecycleTable(t *testing.T) {
	for _, tc := range lifecycleTable {
		row, wants := tc.row, tc.want
		for i, event := range lifecycleEvents {
			t.Run(row+"/"+event, func(t *testing.T) {
				c := lifecycleFleet(t)
				si := reach(t, c, row)
				got := func() (got string) {
					defer func() {
						if recover() != nil {
							got = "panic"
						}
					}()
					apply(c, si, event)
					got = si.phase.String()
					if si.deferDepart {
						got += "+defer"
					}
					return got
				}()
				if got != wants[i] {
					t.Errorf("%s, %s: got %s, want %s:\n%s", row, event, got, wants[i], strings.Join(eventsAbout(c, si.name), "\n"))
				}
			})
		}
	}
}

// fleetOp is one operation of a FuzzFleetLifecycle script.
type fleetOp struct {
	kind, target byte
	at           sim.Time
}

// Script operation kinds.
const (
	opSubmit  = iota // stream target&7, period 75·2^((target>>3&3)%3), priority target>>5
	opDepart         // stream target&7
	opWedge          // a permanent link wedge on chain target
	opHeal           // spare target comes online at the op's time
	opConvict        // the doctor convicts chain target
	opKinds
)

// encodeScript renders a fleet shape and its operations as fuzz input.
func encodeScript(serving, spares int, ops ...fleetOp) []byte {
	out := []byte{byte(serving-1) + 3*byte(spares)}
	for _, op := range ops {
		out = append(out, op.kind, op.target, byte(op.at>>16), byte(op.at>>8), byte(op.at))
	}
	return out
}

// FuzzFleetLifecycle runs a small fleet under fuzzed arrivals, departures,
// wedge faults, heals and convictions. Whatever the script, no transition
// panics, every serving chain's model holds exactly the registry's streams
// on it, every evacuation finishes, and no stream is still between chains
// two retry budgets after the last operation.
func FuzzFleetLifecycle(f *testing.F) {
	arrivals := []fleetOp{{opSubmit, 0 | 5<<5, 1_000}, {opSubmit, 1 | 1<<5, 5_000}}
	wedge := fleetOp{opWedge, 0, 20_000}
	// A departure during a pending readmission.
	f.Add(encodeScript(1, 1, append(arrivals, wedge, fleetOp{opHeal, 0, 60_000}, fleetOp{opDepart, 0, 60_403})...))
	// A readmission whose target dies mid-admit.
	f.Add(encodeScript(1, 2, append(arrivals, wedge, fleetOp{opHeal, 0, 60_000}, fleetOp{opHeal, 1, 60_001},
		fleetOp{opConvict, 2, 60_003})...))
	// An evacuee whose target dies mid-admit.
	f.Add(encodeScript(3, 0, arrivals[0], wedge, fleetOp{opConvict, 1, 25_102}))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		serving, spares := 1+int(script[0])%3, int(script[0]/3)%3
		var chains []ChainSpec
		for i := 0; i < serving+spares; i++ {
			cs := ChainSpec{Name: fmt.Sprintf("c%d", i), AccelCost: 1, ReserveSlots: 4, Spare: i >= serving}
			chains = append(chains, cs)
		}
		var ops []fleetOp
		last := sim.Time(0)
		for b := script[1:]; len(b) >= 5 && len(ops) < 16; b = b[5:] {
			op := fleetOp{b[0] % opKinds, b[1], (sim.Time(b[2])<<16 | sim.Time(b[3])<<8 | sim.Time(b[4])) % 200_000}
			ops = append(ops, op)
			last = max(last, op.at)
			cs := &chains[int(op.target)%len(chains)]
			switch op.kind {
			case opWedge:
				if cs.Faults == nil {
					cs.Faults = &fault.Plan{}
				}
				cs.Faults.Faults = append(cs.Faults.Faults, fault.Fault{Kind: fault.WedgeLink, Site: 0, At: op.at})
			case opHeal:
				if spares > 0 {
					chains[serving+int(op.target)%spares].OnlineAt = op.at
				}
			}
		}
		c := mustCluster(t, testConfig(chains))
		for _, op := range ops {
			name := fmt.Sprintf("s%d", op.target&7)
			switch op.kind {
			case opSubmit:
				period := int64(75) << ((op.target >> 3 & 3) % 3)
				submitAt(c, op.at, StreamRequest{Name: name, Period: period, Priority: int(op.target >> 5)})
			case opDepart:
				departAt(c, op.at, name)
			case opConvict:
				chain := c.chains[int(op.target)%len(c.chains)].name
				c.System().K.ScheduleAt(op.at, func() { convict(c, chain) })
			}
		}
		budget := sim.Time(0)
		for i := 0; i < c.cfg.Retry.Limit; i++ {
			d, _ := c.cfg.Retry.Delay(i)
			budget += d
		}
		c.Run(last + 2*budget)

		checkAgreement(t, c)
		if _, err := c.Conformance(conformance.Options{}); err != nil {
			t.Errorf("conformance: %v", err)
		}
		open := map[string]int{}
		for _, e := range c.Events() {
			switch {
			case e.Kind == EvEvacuate && strings.HasPrefix(e.Detail, "settle="):
				open[e.Chain]++
			case e.Kind == EvEvacuated:
				open[e.Chain]--
			}
		}
		for chain, n := range open {
			if n != 0 {
				t.Errorf("%s: %d evacuations never finished", chain, n)
			}
		}
		for _, ss := range c.StreamStatuses() {
			if ss.State == "placing" {
				t.Errorf("%s still placing at %d", ss.Name, c.System().K.Now())
			}
		}
		if t.Failed() {
			t.Logf("events:\n%s", renderEvents(c))
		}
	})
}

// TestConformanceChecksAgreement: Conformance refuses a fleet whose
// registry and admission models disagree, whichever way they split: a
// model stream the registry places on no chain, or on another chain.
func TestConformanceChecksAgreement(t *testing.T) {
	for _, tc := range []struct {
		chain int
		want  string
	}{
		{-1, `chain "c0": model holds 2 streams, registry 1`},
		{1, `chain "c0": model holds 2 streams, registry 1`},
		{0, ""},
	} {
		c := mustCluster(t, testConfig([]ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4},
		}))
		submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 150})
		c.Run(20_000)
		if ss := statusOf(c, "s0"); ss.State != "live" || ss.Chain != "c0" {
			t.Fatalf("s0: state=%s chain=%s, want live on c0", ss.State, ss.Chain)
		}
		c.streams["s0"].chain = tc.chain
		_, err := c.Conformance(conformance.Options{})
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && !strings.Contains(got, tc.want) {
			t.Errorf("s0 registered on chain %d: Conformance error %v, want %q", tc.chain, err, tc.want)
		}
	}
	// A model stream the registry counts on the chain but under another
	// name's entry: the per-stream check names it.
	c := mustCluster(t, testConfig([]ChainSpec{{Name: "c0", AccelCost: 1, ReserveSlots: 4}}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 150})
	submitAt(c, 2_000, StreamRequest{Name: "s1", Period: 150})
	c.Run(20_000)
	c.streams["s0"].chain = -1
	c.Submit(StreamRequest{Name: "s2", Period: 150})
	c.streams["s2"].chain = 0
	if _, err := c.Conformance(conformance.Options{}); err == nil || !strings.Contains(err.Error(), `model stream "s0" is not on it`) {
		t.Errorf("Conformance error %v, want s0 named", err)
	}
}
