package cluster

import (
	"reflect"
	"testing"
	"unsafe"

	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// testConfig is the shared fleet fixture: ε=15, δ=1, Rs=50, checkpointed
// recovery (K=4), the failover campaign's wedge doctor, and a bounded
// geometric backoff. A cost-1 chain saturates at four 1/75 streams
// (Eq. 6: η(75−15n) ≥ 80n has no solution at n=5), so capacity tests can
// pin exact shed behaviour.
func testConfig(chains []ChainSpec) Config {
	return Config{
		EntryCost:    15,
		ExitCost:     1,
		HopLatency:   1,
		Reconfig:     50,
		DrainTimeout: 600,
		Recovery: gateway.Recovery{
			Enabled: true, RetryLimit: 2,
			Checkpoint: 4, CheckpointCost: 5, ValueExact: true,
		},
		PerSlotCost:      10,
		Doctor:           fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1},
		Retry:            fault.Backoff{Base: 200, Factor: 2, Cap: 3_200, Limit: 8},
		ResidentPeriod:   75,
		ResidentPriority: 100,
		InCapacity:       256,
		OutCapacity:      128,
		CollectOutputs:   true,
		Chains:           chains,
	}
}

func mustCluster(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func submitAt(c *Controller, at sim.Time, req StreamRequest) {
	c.System().K.ScheduleAt(at, func() { c.Submit(req) })
}

func departAt(c *Controller, at sim.Time, name string) {
	c.System().K.ScheduleAt(at, func() { c.Depart(name) })
}

func eventsOf(c *Controller, kind EventKind) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func ladderOf(c *Controller, rung string) []LadderStep {
	var out []LadderStep
	for _, s := range c.LadderSteps() {
		if s.Rung == rung {
			out = append(out, s)
		}
	}
	return out
}

func statusOf(c *Controller, name string) StreamStatus {
	for _, ss := range c.StreamStatuses() {
		if ss.Name == name {
			return ss
		}
	}
	return StreamStatus{}
}

// checkConformance runs the fleet harness and fails on any violation.
func checkConformance(t *testing.T, c *Controller, after sim.Time) {
	t.Helper()
	res, err := c.Conformance(conformance.Options{After: after, MinBlocks: 3, FilterQueued: true})
	if err != nil {
		t.Fatalf("conformance: %v", err)
	}
	if len(res) == 0 {
		t.Fatalf("conformance: no serving chains checked")
	}
	for _, cc := range res {
		for _, v := range cc.Result.Violations {
			t.Errorf("chain %s: %s/%s: %s", cc.Chain, v.Stream, v.Kind, v.Detail)
		}
	}
}

// TestPlacementRanksByUtilization: arrivals go to the least-utilised chain
// (exact big.Rat compare, name tie-break), so equal chains alternate.
func TestPlacementRanksByUtilization(t *testing.T) {
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	c.Run(30_000)

	want := map[string]string{"s0": "c0", "s1": "c1", "s2": "c0"}
	for name, chain := range want {
		ss := statusOf(c, name)
		if ss.State != "live" || ss.Chain != chain {
			t.Errorf("%s: state=%s chain=%s, want live on %s", name, ss.State, ss.Chain, chain)
		}
		if !ss.ContiguousOutputs {
			t.Errorf("%s: outputs not contiguous", name)
		}
	}
	if n := len(eventsOf(c, EvArrive)); n != 3 {
		t.Errorf("arrivals = %d, want 3", n)
	}
	checkConformance(t, c, 15_000)
}

// TestDepartureFreesCapacity: a departed stream's slot is released and the
// survivors keep their bounds.
func TestDepartureFreesCapacity(t *testing.T) {
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	departAt(c, 12_000, "s0")
	c.Run(40_000)

	if ss := statusOf(c, "s0"); ss.State != "departed" {
		t.Fatalf("s0 state = %s, want departed", ss.State)
	}
	if n := len(eventsOf(c, EvDepart)); n != 1 {
		t.Errorf("departures = %d, want 1", n)
	}
	checkConformance(t, c, 20_000)
}

// TestFailoverRung: a wedged chain with a spare available takes ladder rung
// 1 — the whole chain migrates to the standby pair in one bounded action,
// every stream records a failover step with measured ≤ bound, and the fleet
// keeps serving under the survivor model.
func TestFailoverRung(t *testing.T) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "sp", AccelCost: 1, ReserveSlots: 4, Spare: true},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 150, Priority: 1})
	c.Run(90_000)

	if n := len(eventsOf(c, EvVerdict)); n == 0 {
		t.Fatalf("doctor never convicted the wedged chain; events:\n%s", renderEvents(c))
	}
	steps := ladderOf(c, "failover")
	if len(steps) != 3 { // resident + s0 + s1
		t.Fatalf("failover steps = %d, want 3:\n%v", len(steps), steps)
	}
	for _, s := range steps {
		if s.Measured > s.Bound {
			t.Errorf("%s: failover measured %d > bound %d", s.Stream, s.Measured, s.Bound)
		}
		if s.From != "c0" || s.To != "sp" {
			t.Errorf("%s: step %s -> %s, want c0 -> sp", s.Stream, s.From, s.To)
		}
	}
	for _, name := range []string{"s0", "s1"} {
		ss := statusOf(c, name)
		if ss.State != "live" || ss.Chain != "sp" {
			t.Errorf("%s: state=%s chain=%s, want live on sp", name, ss.State, ss.Chain)
		}
		if !ss.ContiguousOutputs {
			t.Errorf("%s: outputs not contiguous across the migration", name)
		}
	}
	checkConformance(t, c, 60_000)
}

// TestFailoverOntoSlowerSpare: the spare's accelerator is 30 times slower
// than the wedged chain's, so the outgoing blocks violate Eq. 6 there. The
// failover must re-solve Algorithm 1 against the spare's own timing and the
// retargeted admission model must carry the spare's chain: no stream drops
// a sample, outputs stay contiguous, and the spare conforms.
func TestFailoverOntoSlowerSpare(t *testing.T) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "sp", AccelCost: 30, ReserveSlots: 4, Spare: true},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 150})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 300})
	c.Run(120_000)

	if n := len(ladderOf(c, "failover")); n != 3 { // resident + s0 + s1
		t.Fatalf("failover steps = %d, want 3:\n%s", n, renderEvents(c))
	}
	sp := c.chains[1]
	if sp.state != chainServing || sp.ctrl == nil {
		t.Fatalf("spare state %s after the failover:\n%s", sp.state, renderEvents(c))
	}
	model := sp.ctrl.Model()
	if got := model.Chain.AccelCosts; len(got) != 1 || got[0] != 30 {
		t.Fatalf("spare's admission model has accelerator costs %v, want [30]", got)
	}
	blocks := make([]int64, len(model.Streams))
	for i := range model.Streams {
		blocks[i] = model.Streams[i].Block
	}
	if v := solve.Verify(model, nil, blocks); !v.Feasible {
		t.Errorf("blocks %v infeasible on the spare: %s", blocks, v.Detail)
	}
	for _, name := range []string{"r-c0", "s0", "s1"} {
		ss := statusOf(c, name)
		if ss.State != "live" || ss.Chain != "sp" {
			t.Errorf("%s: state=%s chain=%s, want live on sp", name, ss.State, ss.Chain)
		}
		if ss.Overflow != 0 {
			t.Errorf("%s: %d samples dropped", name, ss.Overflow)
		}
		if !ss.ContiguousOutputs {
			t.Errorf("%s: outputs not contiguous across the migration", name)
		}
	}
	checkConformance(t, c, 80_000)
}

// TestEvacuateRung: no spare — the wedged chain's streams are exported and
// re-placed one at a time on the survivor via migration admission; each
// records an evacuate step whose measured elapsed time stays within the
// composed bound (settle + Σ transition envelopes + charged backoffs).
func TestEvacuateRung(t *testing.T) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	}))
	// s0 lands on c0 (utilisation tie, name order), s1 on c1.
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 150, Priority: 1})
	c.Run(120_000)

	steps := ladderOf(c, "evacuate")
	if len(steps) != 2 { // resident r-c0 (priority 100) then s0
		t.Fatalf("evacuate steps = %d, want 2:\n%s", len(steps), renderEvents(c))
	}
	if steps[0].Stream != "r-c0" || steps[1].Stream != "s0" {
		t.Errorf("evacuation order %s,%s, want r-c0,s0 (priority desc)", steps[0].Stream, steps[1].Stream)
	}
	for _, s := range steps {
		if s.Measured > s.Bound {
			t.Errorf("%s: evacuate measured %d > bound %d", s.Stream, s.Measured, s.Bound)
		}
		if s.Replay > int(c.cfg.Recovery.Checkpoint) {
			t.Errorf("%s: replay residue %d > K=%d", s.Stream, s.Replay, c.cfg.Recovery.Checkpoint)
		}
	}
	if n := len(ladderOf(c, "shed")); n != 0 {
		t.Errorf("shed steps = %d, want 0 (survivor had capacity)", n)
	}
	for _, name := range []string{"r-c0", "s0", "s1"} {
		ss := statusOf(c, name)
		if ss.State != "live" || ss.Chain != "c1" {
			t.Errorf("%s: state=%s chain=%s, want live on c1", name, ss.State, ss.Chain)
		}
		if !ss.ContiguousOutputs {
			t.Errorf("%s: outputs not contiguous across the migration", name)
		}
	}
	checkConformance(t, c, 80_000)
}

// TestShedAndReadmitOnHeal: with no surviving capacity at all, every stream
// of the dead chain sheds (rung 3) — sources stopped, exports parked — and
// a later heal promotes the spare to serving and readmits them all.
func TestShedAndReadmitOnHeal(t *testing.T) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "sp", AccelCost: 1, ReserveSlots: 4, Spare: true, OnlineAt: 60_000},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75, Priority: 1})
	c.Run(140_000)

	if n := len(ladderOf(c, "shed")); n != 3 { // resident + s0 + s1
		t.Fatalf("shed steps = %d, want 3:\n%s", n, renderEvents(c))
	}
	if n := len(eventsOf(c, EvParked)); n == 0 {
		t.Errorf("no parked event: the readmission budget should exhaust before the heal")
	}
	heals := eventsOf(c, EvHeal)
	if len(heals) != 1 {
		t.Fatalf("heal events = %d, want 1", len(heals))
	}
	re := ladderOf(c, "readmit")
	if len(re) != 3 {
		t.Fatalf("readmit steps = %d, want 3:\n%s", len(re), renderEvents(c))
	}
	for _, s := range re {
		if s.Measured > s.Bound {
			t.Errorf("%s: readmit measured %d > bound %d", s.Stream, s.Measured, s.Bound)
		}
	}
	for _, name := range []string{"r-c0", "s0", "s1"} {
		ss := statusOf(c, name)
		if ss.State != "live" || ss.Chain != "sp" {
			t.Errorf("%s: state=%s chain=%s, want live on sp", name, ss.State, ss.Chain)
		}
	}
	checkConformance(t, c, 110_000)
}

// TestSubmitRejections: malformed and duplicate submissions are rejected
// without touching the platform.
func TestSubmitRejections(t *testing.T) {
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 2},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s0", Period: 75})  // duplicate
	submitAt(c, 6_000, StreamRequest{Name: "", Period: 75})    // no name
	submitAt(c, 7_000, StreamRequest{Name: "sx", Period: -75}) // bad period
	c.Run(20_000)
	if n := len(eventsOf(c, EvReject)); n != 3 {
		t.Errorf("rejects = %d, want 3:\n%s", n, renderEvents(c))
	}
}

// TestNewValidation: the constructor refuses configurations the control
// plane cannot operate.
func TestNewValidation(t *testing.T) {
	base := testConfig([]ChainSpec{{Name: "c0", AccelCost: 1}})
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no chains", func(c *Config) { c.Chains = nil }},
		{"no serving chains", func(c *Config) { c.Chains = []ChainSpec{{Name: "sp", AccelCost: 1, Spare: true}} }},
		{"recovery disabled", func(c *Config) { c.Recovery = gateway.Recovery{} }},
		{"bad resident period", func(c *Config) { c.ResidentPeriod = 0 }},
		{"bad backoff", func(c *Config) { c.Retry = fault.Backoff{} }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Chains = append([]ChainSpec(nil), base.Chains...)
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
}

// TestTrafficDeterminism: the generator is a pure function of its profile.
func TestTrafficDeterminism(t *testing.T) {
	p := Profile{
		Seed: 42, Start: 1_000, End: 50_000,
		MeanSpacing: 4_000, MinLifetime: 10_000, MeanLifetime: 25_000,
		Periods: []int64{75, 150}, Priorities: []int{1, 5},
		FlashAt: 30_000, FlashCount: 4, FlashSpacing: 100,
		FlashPeriod: 150, FlashLifetime: 12_000,
	}
	a, b := p.Ops(), p.Ops()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two expansions of the same profile differ")
	}
	if len(a) == 0 {
		t.Fatalf("profile generated no ops")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("ops not time-sorted at %d", i)
		}
	}
	arr := 0
	for _, op := range a {
		if !op.Depart {
			arr++
			if op.Req.Period <= 0 {
				t.Errorf("%s: non-positive period", op.Req.Name)
			}
		}
	}
	if arr < 5 {
		t.Errorf("only %d arrivals generated, want a busier profile", arr)
	}
}

// TestControllerRunResumes: a run split across two Run calls continues the
// same schedule as one call to the same horizon, so segmented runs of a
// fleet observe exactly what one long run does.
func TestControllerRunResumes(t *testing.T) {
	// Steady background churn plus a flash crowd: placement, rejection and
	// departures on both chains.
	traffic := Profile{
		Seed:          0x5eed,
		Start:         1_000,
		End:           60_000,
		MeanSpacing:   2_500,
		MinLifetime:   15_000,
		MeanLifetime:  30_000,
		Periods:       []int64{75, 150, 300},
		Priorities:    []int{0, 1, 2},
		FlashAt:       25_000,
		FlashCount:    6,
		FlashSpacing:  40,
		FlashPeriod:   150,
		FlashLifetime: 20_000,
	}
	fleet := func() *Controller {
		c := mustCluster(t, testConfig([]ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4},
		}))
		Schedule(c, traffic.Ops())
		return c
	}
	one := fleet()
	one.Run(80_000)
	two := fleet()
	two.Run(30_000)
	two.Run(80_000)

	if len(one.Events()) == 0 || len(one.StreamStatuses()) == 0 {
		t.Fatal("profile exercised nothing")
	}
	oe, te := one.Events(), two.Events()
	if len(oe) != len(te) {
		t.Fatalf("split run diverged: %d vs %d events", len(oe), len(te))
	}
	for i := range oe {
		if oe[i] != te[i] {
			t.Fatalf("event %d:\n  one-shot: %s\n  split:    %s", i, FormatEvent(oe[i]), FormatEvent(te[i]))
		}
	}
	if a, b := one.StreamStatuses(), two.StreamStatuses(); !reflect.DeepEqual(a, b) {
		t.Fatalf("stream statuses differ:\n  one-shot: %+v\n  split:    %+v", a, b)
	}
	if a, b := one.ChainStatuses(), two.ChainStatuses(); !reflect.DeepEqual(a, b) {
		t.Fatalf("chain statuses differ:\n  one-shot: %+v\n  split:    %+v", a, b)
	}
	if a, b := one.System().K.Now(), two.System().K.Now(); a != b {
		t.Fatalf("clock: one-shot %d, split %d", a, b)
	}
	if a, b := one.System().Report(), two.System().Report(); !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ:\n  one-shot: %+v\n  split:    %+v", a, b)
	}
}

func renderEvents(c *Controller) string {
	out := ""
	for _, e := range c.Events() {
		out += FormatEvent(e) + "\n"
	}
	return out
}

// TestStreamInfoSizeClass: on 64-bit platforms a streamInfo stays in the
// 176-byte malloc size class (the next is 192). A fleet allocates one per
// submitted stream, and the benchmark's allocation figures rest on that
// class.
func TestStreamInfoSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(streamInfo{}); got > 176 {
		t.Errorf("a streamInfo is %d bytes, past its 176-byte size class", got)
	}
}
