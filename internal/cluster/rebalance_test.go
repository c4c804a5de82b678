package cluster

import (
	"math/big"
	"testing"

	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/sim"
)

// rebalanceConfig arms the test fixture's rebalancer: tick every 5k cycles
// in [start, stop], trigger above a 1/8 utilisation spread. With c0 = 15 a
// period-75 stream adds exactly 1/5 and a period-150 stream 1/10, so the
// spreads below are exact rationals the tests can pin.
func rebalanceConfig(start, stop sim.Time) RebalanceConfig {
	return RebalanceConfig{
		Every: 5_000, Start: start, Stop: stop,
		HighWater: big.NewRat(1, 8),
	}
}

// TestRebalanceMovesHotStream: after a departure skews the fleet (c0 at
// 1/2, c1 at 1/5), the first tick past the high water plans exactly one
// move; the victim lands live on the cold chain with contiguous outputs, a
// "rebalance" ladder step within its composed bound, and the per-tick
// telemetry pins the spread before (3/10) and after (1/10).
func TestRebalanceMovesHotStream(t *testing.T) {
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	})
	cfg.Rebalance = rebalanceConfig(40_000, 60_000)
	c := mustCluster(t, cfg)
	// Placement alternates on equal chains: s0 -> c0, s1 -> c1, s2 -> c0.
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	departAt(c, 25_000, "s1")
	c.Run(160_000)

	steps := ladderOf(c, "rebalance")
	if len(steps) != 1 {
		t.Fatalf("rebalance steps = %d, want 1:\n%s", len(steps), renderEvents(c))
	}
	s := steps[0]
	if s.Stream != "s0" && s.Stream != "s2" {
		t.Fatalf("moved %q, want a non-resident victim (s0 or s2)", s.Stream)
	}
	if s.From != "c0" || s.To != "c1" {
		t.Errorf("move %s -> %s, want c0 -> c1", s.From, s.To)
	}
	if s.Measured > s.Bound {
		t.Errorf("rebalance measured %d > composed bound %d", s.Measured, s.Bound)
	}
	if s.Replay > int(c.cfg.Recovery.Checkpoint) {
		t.Errorf("replay residue %d > K=%d", s.Replay, c.cfg.Recovery.Checkpoint)
	}
	if n := len(eventsOf(c, EvRebalanced)); n != 1 {
		t.Errorf("rebalanced events = %d, want 1", n)
	}
	ss := statusOf(c, s.Stream)
	if ss.State != "live" || ss.Chain != "c1" {
		t.Errorf("%s: state=%s chain=%s, want live on c1", s.Stream, ss.State, ss.Chain)
	}
	if !ss.ContiguousOutputs {
		t.Errorf("%s: outputs not contiguous across the move", s.Stream)
	}
	other := "s2"
	if s.Stream == "s2" {
		other = "s0"
	}
	if os := statusOf(c, other); os.State != "live" || os.Chain != "c0" {
		t.Errorf("%s: state=%s chain=%s, want live on c0 (untouched)", other, os.State, os.Chain)
	}

	// Telemetry: one snapshot per tick regardless of activity (40k..60k
	// inclusive = 5), spread 3/10 at the trigger, 1/10 once the move lands.
	fleet := c.FleetLog()
	if len(fleet) != 5 {
		t.Fatalf("fleet snapshots = %d, want 5", len(fleet))
	}
	if got := fleet[0].Spread.Rat(); got.Cmp(big.NewRat(3, 10)) != 0 {
		t.Errorf("spread at first tick = %s, want 3/10", got.RatString())
	}
	if got := fleet[len(fleet)-1].Spread.Rat(); got.Cmp(big.NewRat(1, 10)) != 0 {
		t.Errorf("spread at last tick = %s, want 1/10", got.RatString())
	}
	checkConformance(t, c, 100_000)
}

// TestRebalanceIdleBelowHighWater: a mildly uneven fleet (spread 1/10,
// default high water 1/4) ticks telemetry but never moves anything — the
// hysteresis trigger, not the mere existence of a spread, starts a move.
func TestRebalanceIdleBelowHighWater(t *testing.T) {
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	})
	cfg.Rebalance = RebalanceConfig{Every: 5_000, Start: 20_000, Stop: 50_000}
	c := mustCluster(t, cfg)
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	c.Run(80_000)

	if n := len(eventsOf(c, EvRebalance)) + len(eventsOf(c, EvRebalanced)); n != 0 {
		t.Fatalf("rebalance events = %d, want 0 below the high water:\n%s", n, renderEvents(c))
	}
	fleet := c.FleetLog()
	if len(fleet) != 7 { // 20k..50k inclusive
		t.Fatalf("fleet snapshots = %d, want 7", len(fleet))
	}
	fs := fleet[0]
	if got := fs.Spread.Rat(); got.Cmp(big.NewRat(1, 10)) != 0 {
		t.Errorf("spread = %s, want 1/10", got.RatString())
	}
	if len(fs.Chains) != 2 || fs.Chains[0].Name != "c0" || fs.Chains[1].Name != "c1" {
		t.Fatalf("telemetry chains = %+v, want c0,c1 in config order", fs.Chains)
	}
	if fs.Chains[0].Streams != 3 || fs.Chains[1].Streams != 2 {
		t.Errorf("stream counts = %d,%d, want 3,2 (residents included)",
			fs.Chains[0].Streams, fs.Chains[1].Streams)
	}
	if ct := fs.Chains[0]; ct.State != "serving" || ct.Util.Rat().Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("c0 %s at util %s, want serving at 1/2", ct.State, ct.Util.Rat().RatString())
	}
	if ct := fs.Chains[1]; ct.State != "serving" || ct.Util.Rat().Cmp(big.NewRat(2, 5)) != 0 {
		t.Errorf("c1 %s at util %s, want serving at 2/5", ct.State, ct.Util.Rat().RatString())
	}
	if fs.Parked != 0 || fs.Placing != 0 {
		t.Errorf("parked=%d placing=%d, want 0,0", fs.Parked, fs.Placing)
	}
}

// TestRebalanceMoveBudget: a stream that has spent its per-lifetime move
// budget is no longer a candidate, so a second imbalance that only it could
// fix goes unserved — the budget is what stops a dominant stream from
// bouncing between chains for the rest of the campaign.
func TestRebalanceMoveBudget(t *testing.T) {
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	})
	cfg.Rebalance = rebalanceConfig(40_000, 120_000)
	cfg.Rebalance.MoveBudget = 1
	c := mustCluster(t, cfg)
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 75})
	// First imbalance: c0 at 3/5 vs c1 at 1/5 after s1 departs; one move
	// balances the fleet exactly (2/5 each).
	departAt(c, 25_000, "s1")
	// Second imbalance at 70k: depart whichever non-resident is still on c0
	// (the victim of the first move is residue-dependent), leaving c0 at 1/5
	// vs c1 at 2/5. The only candidate on the hot chain is the stream that
	// already moved — budget-exhausted, so the spread must persist.
	c.System().K.ScheduleAt(70_000, func() {
		for _, ss := range c.StreamStatuses() {
			if ss.Chain == "c0" && ss.State == "live" && ss.Name != "r-c0" {
				c.Depart(ss.Name)
			}
		}
	})
	c.Run(200_000)

	if n := len(ladderOf(c, "rebalance")); n != 1 {
		t.Fatalf("rebalance steps = %d, want 1 (budget caps the second move):\n%s", n, renderEvents(c))
	}
	fleet := c.FleetLog()
	if len(fleet) == 0 {
		t.Fatal("no fleet snapshots")
	}
	if got := fleet[len(fleet)-1].Spread.Rat(); got.Cmp(big.NewRat(1, 5)) != 0 {
		t.Errorf("final spread = %s, want the persistent 1/5 imbalance", got.RatString())
	}
	checkConformance(t, c, 140_000)
}

// TestRankServingNameTieBreak: the serving-chain ranking orders chains by
// exact utilisation with the name as the tie-break, independent of
// configuration order, so placement (and the rebalancer's fallback ladder)
// stays deterministic across config reorderings. Residents add 1/5 on a
// c0 = 15 chain and 2/5 on a c0 = 30 one; a period-150 stream adds 1/10 and
// a period-75 one 1/5. Each submission lands on the head of the ranking at
// its arrival.
func TestRankServingNameTieBreak(t *testing.T) {
	type ranked struct {
		name string
		util *big.Rat
	}
	chain := func(name string, accel sim.Time) ChainSpec {
		return ChainSpec{Name: name, AccelCost: accel, ReserveSlots: 2}
	}
	cases := []struct {
		name    string
		chains  []ChainSpec
		submits []StreamRequest
		landed  []string
		want    []ranked
	}{
		{
			name:   "residents only, all tied",
			chains: []ChainSpec{chain("cc", 1), chain("ca", 1), chain("cb", 1)},
			want:   []ranked{{"ca", big.NewRat(1, 5)}, {"cb", big.NewRat(1, 5)}, {"cc", big.NewRat(1, 5)}},
		},
		{
			name:    "one loaded chain behind three tied",
			chains:  []ChainSpec{chain("cd", 1), chain("cc", 1), chain("cb", 1), chain("ca", 1)},
			submits: []StreamRequest{{Name: "s0", Period: 150}},
			landed:  []string{"ca"},
			want: []ranked{{"cb", big.NewRat(1, 5)}, {"cc", big.NewRat(1, 5)}, {"cd", big.NewRat(1, 5)},
				{"ca", big.NewRat(3, 10)}},
		},
		{
			name:    "two tied pairs",
			chains:  []ChainSpec{chain("cd", 1), chain("cc", 1), chain("cb", 1), chain("ca", 1)},
			submits: []StreamRequest{{Name: "s0", Period: 150}, {Name: "s1", Period: 150}},
			landed:  []string{"ca", "cb"},
			want: []ranked{{"cc", big.NewRat(1, 5)}, {"cd", big.NewRat(1, 5)},
				{"ca", big.NewRat(3, 10)}, {"cb", big.NewRat(3, 10)}},
		},
		{
			name:    "tie across different c0",
			chains:  []ChainSpec{chain("cc", 1), chain("cb", 1), chain("ca", 30)},
			submits: []StreamRequest{{Name: "s0", Period: 150}, {Name: "s1", Period: 75}},
			landed:  []string{"cb", "cc"},
			want:    []ranked{{"cb", big.NewRat(3, 10)}, {"ca", big.NewRat(2, 5)}, {"cc", big.NewRat(2, 5)}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCluster(t, testConfig(tc.chains))
			at := sim.Time(12_000)
			for _, req := range tc.submits {
				submitAt(c, at, req)
				at += 10_000
			}
			c.Run(at + 10_000)
			for i, req := range tc.submits {
				if ss := statusOf(c, req.Name); ss.State != "live" || ss.Chain != tc.landed[i] {
					t.Errorf("%s: state=%s chain=%s, want live on %s", req.Name, ss.State, ss.Chain, tc.landed[i])
				}
			}
			var got []ranked
			for _, ci := range c.rankServing() {
				got = append(got, ranked{ci.name, ci.ctrl.Load().Rat()})
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ranked %d chains, want %d", len(got), len(tc.want))
			}
			for i, w := range tc.want {
				if got[i].name != w.name || got[i].util.Cmp(w.util) != 0 {
					t.Errorf("rank %d = %s at %s, want %s at %s", i, got[i].name, got[i].util.RatString(),
						w.name, w.util.RatString())
				}
			}
		})
	}
}

// TestRebalanceThenFailoverComposedReplay: a stream migrated twice — first
// by the rebalancer, then by a chain failover — keeps every bound composed:
// each ladder step stays within its own envelope, the replay residue stays
// ≤ K per move, outputs remain contiguous across BOTH migrations, and the
// post-transient trace satisfies the measured replay bound
// (Replayed ≤ Retries·K).
func TestRebalanceThenFailoverComposedReplay(t *testing.T) {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 60_000}}}
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "sp", AccelCost: 1, ReserveSlots: 4, Spare: true},
	})
	// Stop ticking before the wedge so the failover owns the fleet's full
	// attention (and the conformance cut sees no rebalance transient).
	cfg.Rebalance = rebalanceConfig(40_000, 55_000)
	c := mustCluster(t, cfg)
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	departAt(c, 25_000, "s1")
	c.Run(180_000)

	k := int(c.cfg.Recovery.Checkpoint)
	reb := ladderOf(c, "rebalance")
	if len(reb) != 1 {
		t.Fatalf("rebalance steps = %d, want 1:\n%s", len(reb), renderEvents(c))
	}
	moved := reb[0].Stream
	if reb[0].Measured > reb[0].Bound {
		t.Errorf("rebalance measured %d > bound %d", reb[0].Measured, reb[0].Bound)
	}
	if reb[0].Replay > k {
		t.Errorf("rebalance replay %d > K=%d", reb[0].Replay, k)
	}

	fo := ladderOf(c, "failover")
	if len(fo) != 2 { // r-c1 + the rebalanced stream
		t.Fatalf("failover steps = %d, want 2:\n%s", len(fo), renderEvents(c))
	}
	sawMoved := false
	for _, s := range fo {
		if s.From != "c1" || s.To != "sp" {
			t.Errorf("%s: failover %s -> %s, want c1 -> sp", s.Stream, s.From, s.To)
		}
		if s.Measured > s.Bound {
			t.Errorf("%s: failover measured %d > bound %d", s.Stream, s.Measured, s.Bound)
		}
		// The failover record's replay is the total over both migrated slots.
		if s.Replay > 2*k {
			t.Errorf("%s: failover replay %d > 2K=%d", s.Stream, s.Replay, 2*k)
		}
		sawMoved = sawMoved || s.Stream == moved
	}
	if !sawMoved {
		t.Fatalf("stream %s (rebalanced to c1) missing from the failover steps %v", moved, fo)
	}

	ss := statusOf(c, moved)
	if ss.State != "live" || ss.Chain != "sp" {
		t.Errorf("%s: state=%s chain=%s, want live on sp after both moves", moved, ss.State, ss.Chain)
	}
	if !ss.ContiguousOutputs {
		t.Errorf("%s: outputs not contiguous across rebalance + failover", moved)
	}

	res, err := c.Conformance(conformance.Options{
		After: 120_000, MinBlocks: 3, FilterQueued: true, ReplayBound: int64(k),
	})
	if err != nil {
		t.Fatalf("conformance: %v", err)
	}
	checked := 0
	for _, cc := range res {
		checked += cc.Result.Checked
		for _, v := range cc.Result.Violations {
			t.Errorf("chain %s: %s/%s: %s", cc.Chain, v.Stream, v.Kind, v.Detail)
		}
	}
	if checked == 0 {
		t.Fatal("conformance checked zero blocks")
	}
}
