package cluster

import (
	"fmt"
	"math/big"
	"sort"
	"testing"

	"accelshare/internal/admission"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// TestRankServingZeroAlloc backs the //accellint:noalloc annotation on
// rankServing: between commits, ranking the fleet reads each chain's
// cached utilisation and reuses one slice. The order is the exact big.Rat
// order, name as the tie-break.
func TestRankServingZeroAlloc(t *testing.T) {
	c, err := New(testConfig(benchFleet()))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		submitAt(c, sim.Time(1000+500*s), StreamRequest{Name: fmt.Sprintf("s%d", s), Period: int64(150 * (1 + s%3))})
	}
	c.Run(20_000)

	want := append([]*chainInfo(nil), c.chains...)
	sort.SliceStable(want, func(a, b int) bool {
		if cmp := want[a].ctrl.Load().Rat().Cmp(want[b].ctrl.Load().Rat()); cmp != 0 {
			return cmp < 0
		}
		return want[a].name < want[b].name
	})
	got := c.rankServing()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d is %s, want %s", i, got[i].name, want[i].name)
		}
	}
	if a := testing.AllocsPerRun(200, func() { c.rankServing() }); a != 0 {
		t.Fatalf("rankServing: %v allocs per run, want 0", a)
	}
}

// TestRefusedAttemptZeroAlloc backs the //accellint:noalloc annotations on
// the attempt pool: a placement or migration attempt that a busy chain
// refuses synchronously allocates nothing in the cluster, so it costs what
// the admission call alone costs (the controller's log record of the
// refusal). A pending attempt's record returns to the pool, cleared, when
// its verdict lands.
func TestRefusedAttemptZeroAlloc(t *testing.T) {
	c := mustCluster(t, testConfig(benchFleet()))
	c.Run(5_000)
	c.Submit(StreamRequest{Name: "s0", Period: 300})
	s0 := c.streams["s0"]
	if !s0.inflight {
		t.Fatal("s0's placement is not pending")
	}
	tc := c.chains[s0.pendingOn]
	if !tc.ctrl.Busy() {
		t.Fatalf("%s is not busy with s0's transition", tc.name)
	}

	si := &streamInfo{name: "s1", period: 300, chain: -1}
	add := admission.AddRequest{Spec: c.streamSpec(si), Rate: big.NewRat(1, si.period)}
	mig := c.migrateRequest(si, c.ms.Chains[tc.idx].Strs[0], gateway.StreamExport{})
	alone := testing.AllocsPerRun(200, func() { tc.ctrl.AddStream(add, func(admission.Verdict) {}) })
	placed := testing.AllocsPerRun(200, func() {
		a := c.newAttempt(placing, si, tc, 0)
		tc.ctrl.AddStream(add, a.done)
		if v, pending := c.offered(a); pending || v.Reason != admission.ReasonBusy {
			t.Fatalf("busy chain: pending %v, verdict %+v", pending, v)
		}
	})
	migrated := testing.AllocsPerRun(200, func() {
		if v, pending := c.offerMigrant(c.newAttempt(readmitting, si, tc, 0), mig); pending || v.Reason != admission.ReasonBusy {
			t.Fatalf("busy chain: pending %v, verdict %+v", pending, v)
		}
	})
	if alone != 1 || placed != alone || migrated != alone {
		t.Fatalf("allocs per refused attempt: placement %v, migration %v, admission alone %v; want 1 each",
			placed, migrated, alone)
	}
	if si.inflight {
		t.Fatal("a refused attempt left its stream in flight")
	}

	c.Run(40_000)
	if ss := statusOf(c, "s0"); ss.State != "live" || ss.Chain != tc.name {
		t.Fatalf("s0: state=%s chain=%s, want live on %s", ss.State, ss.Chain, tc.name)
	}
	n := 0
	for a := c.attempts; a != nil; a = a.next {
		if a.si != nil || a.tc != nil || a.m != nil || a.pending || a.refused {
			t.Fatalf("pooled attempt %+v not cleared", *a)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d pooled attempts, want 2: s0's, back once its verdict landed, and the one every refusal reused", n)
	}
}

// statsSink keeps the guarded snapshot from being optimised away.
var statsSink FleetStats

// TestStatsZeroAlloc backs the //accellint:noalloc annotation on Stats:
// a snapshot reads every serving chain's cached load, so its one
// allocation is the Chains slice the fleet log keeps.
func TestStatsZeroAlloc(t *testing.T) {
	c := mustCluster(t, testConfig(benchFleet()))
	for s := 0; s < 6; s++ {
		submitAt(c, sim.Time(1000+500*s), StreamRequest{Name: fmt.Sprintf("s%d", s), Period: int64(150 * (1 + s%3))})
	}
	c.Run(20_000)
	fs := c.Stats()
	if fs.Spread.Cmp(core.Load{}) <= 0 {
		t.Fatalf("spread %s, want an uneven fleet", fs.Spread.Rat().RatString())
	}
	if a := testing.AllocsPerRun(200, func() { statsSink = c.Stats() }); a != 1 {
		t.Fatalf("Stats: %v allocs per run, want 1 (the Chains slice)", a)
	}
}
