package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"accelshare/internal/fault"
	"accelshare/internal/sim"
)

// holdPair parks a chain's arbitration at its next block boundary, as a
// transition that never ends would: every admission request on that chain
// is rejected busy until release resumes it.
func holdPair(t *testing.T, c *Controller, chain string) (release func()) {
	t.Helper()
	for _, ci := range c.chains {
		if ci.name != chain {
			continue
		}
		pair := c.ms.Chains[ci.idx].Pair
		if err := pair.RequestPause(func() {}); err != nil {
			t.Fatalf("hold %s: %v", chain, err)
		}
		return func() {
			if !pair.Paused() {
				t.Fatalf("hold on %s was never granted", chain)
			}
			pair.Resume()
		}
	}
	t.Fatalf("no chain %s", chain)
	return nil
}

// runUntilEvent advances the fleet until an event whose rendering contains
// text is logged.
func runUntilEvent(t *testing.T, c *Controller, until sim.Time, text string) {
	t.Helper()
	seen := func() bool {
		for _, e := range c.Events() {
			if strings.Contains(FormatEvent(e), text) {
				return true
			}
		}
		return false
	}
	if !c.System().K.RunUntil(until, seen) {
		t.Fatalf("no %q event by %d:\n%s", text, until, renderEvents(c))
	}
}

// inTransit reports whether a rebalance victim has left its source chain
// (released, settling or being offered to targets).
func inTransit(c *Controller) bool {
	for _, si := range c.order {
		if si.phase == migrating && si.m.op != nil {
			return true
		}
	}
	return false
}

// evacFleet is TestEvacuateRung's fleet: c0 wedges at 20k and, with no
// spare, its resident and s0 evacuate onto c1 (settle 140).
func evacFleet(t *testing.T) *Controller {
	wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
	c := mustCluster(t, testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	}))
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 150, Priority: 1})
	return c
}

// rebalanceFleet is TestRebalanceMovesHotStream's fleet: the 40k tick
// moves s0 from c0 to c1 under the composed bound removal 160 + settle
// 310 + admission 130 = 600.
func rebalanceFleet(t *testing.T) *Controller {
	cfg := testConfig([]ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4},
	})
	cfg.Rebalance = rebalanceConfig(40_000, 60_000)
	c := mustCluster(t, cfg)
	submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75})
	submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 75})
	submitAt(c, 9_000, StreamRequest{Name: "s2", Period: 150})
	departAt(c, 25_000, "s1")
	return c
}

// holdInTransit runs the rebalance fleet until the victim is released from
// c0, then holds both chains so every admit of the victim is rejected busy.
func holdInTransit(t *testing.T, c *Controller) (releaseC1 func()) {
	t.Helper()
	c.Run(39_000)
	if !c.System().K.RunUntil(60_000, func() bool { return inTransit(c) }) {
		t.Fatal("the 40k tick moved nothing")
	}
	releaseC1 = holdPair(t, c, "c1")
	holdPair(t, c, "c0")
	return releaseC1
}

// backoffs renders the retry events a target held busy for the whole
// schedule produces: Base 200, Factor 2, Cap 3200, Limit 8 (15,800 cycles).
func backoffs(stream, what string, from sim.Time) []string {
	var out []string
	at := from
	for i, d := range []sim.Time{200, 400, 800, 1600, 3200, 3200, 3200, 3200} {
		out = append(out, FormatEvent(Event{At: at, Kind: EvRetry, Stream: stream,
			Detail: fmt.Sprintf("%s attempt %d backs off %d cycles", what, i+1, d)}))
		at += d
	}
	return out
}

// pathEvents renders the events a migrant placement loop logs from cycle
// from on.
func pathEvents(c *Controller, from sim.Time) []string {
	var out []string
	for _, e := range c.Events() {
		switch e.Kind {
		case EvRetry, EvMigrated, EvShed, EvParked, EvEvacuated, EvRebalanced, EvReject, EvDepart:
			if e.At >= from {
				out = append(out, FormatEvent(e))
			}
		}
	}
	return out
}

// TestMigrantPlacementPaths pins the retry paths of the migrant placement
// loop (DESIGN §8.1, §13) that no campaign golden reaches: evacuation and
// rebalance admits against a busy target, each backoff's exact event and
// its delay charged to the step's composed bound, and budget exhaustion
// ending in a shed ladder step. A placement against a busy fleet ends
// "retry budget exhausted (targets busy)".
func TestMigrantPlacementPaths(t *testing.T) {
	t.Run("evacuate-busy-target", func(t *testing.T) {
		c := evacFleet(t)
		c.Run(19_000)
		release := holdPair(t, c, "c1")
		runUntilEvent(t, c, 120_000, "migration attempt 1 backs off")
		release()
		c.System().K.Run(120_000)
		want := []string{
			"[  24938] retry     r-c0         migration attempt 1 backs off 200 cycles",
			"[  25170] migrated  c1/r-c0      eta=7 measured=372 bound=510 replay=4",
			"[  25210] migrated  c1/s0        eta=15 measured=412 bound=770 replay=0",
			"[  25210] evacuated c0           2 migrated 0 shed measured=412 bound=770",
		}
		if got := pathEvents(c, 20_000); !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		// Unheld, the same steps are bounded by 310 and 570: the backoff's
		// 200 cycles are charged to every later step of the evacuation.
		wantSteps := []LadderStep{
			{At: 25170, Stream: "r-c0", Rung: "evacuate", From: "c0", To: "c1", Measured: 372, Bound: 510, Replay: 4},
			{At: 25210, Stream: "s0", Rung: "evacuate", From: "c0", To: "c1", Measured: 412, Bound: 770},
		}
		if got := c.LadderSteps(); !reflect.DeepEqual(got, wantSteps) {
			t.Errorf("ladder %+v, want %+v", got, wantSteps)
		}
	})

	t.Run("evacuate-budget-exhausted", func(t *testing.T) {
		c := evacFleet(t)
		c.Run(19_000)
		holdPair(t, c, "c1")
		c.System().K.Run(120_000)
		want := backoffs("r-c0", "migration", 24938)
		want = append(want,
			"[  40738] shed      r-c0         no capacity on any serving chain; parked (measured=15940 bound=15940)")
		want = append(want, backoffs("s0", "migration", 40738)...)
		want = append(want,
			"[  56538] parked    r-c0         readmission budget exhausted; awaiting a heal",
			"[  56538] shed      s0           no capacity on any serving chain; parked (measured=31740 bound=31740)",
			"[  56538] evacuated c0           0 migrated 2 shed measured=31740 bound=31740",
			"[  72338] parked    s0           readmission budget exhausted; awaiting a heal",
		)
		if got := pathEvents(c, 20_000); !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		wantSteps := []LadderStep{
			{At: 40738, Stream: "r-c0", Rung: "shed", From: "c0", Measured: 15940, Bound: 15940, Replay: 4},
			{At: 56538, Stream: "s0", Rung: "shed", From: "c0", Measured: 31740, Bound: 31740},
		}
		if got := c.LadderSteps(); !reflect.DeepEqual(got, wantSteps) {
			t.Errorf("ladder %+v, want %+v", got, wantSteps)
		}
	})

	// c1's resident loses its idle notification three times from block 87
	// on, so it is quarantined while s0's migration drains c1: the admit
	// is superseded, backs off, and the delay joins the composed bound
	// (270 + 200 + c1's envelope 130). The two-stream doctor keeps c1's
	// single faulty stream from convicting it.
	t.Run("evacuate-superseded", func(t *testing.T) {
		lose := &fault.Plan{Faults: []fault.Fault{{Kind: fault.LoseIdle, Stream: 0, Block: 87, Count: 3}}}
		wedge := &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: 20_000}}}
		cfg := testConfig([]ChainSpec{
			{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge},
			{Name: "c1", AccelCost: 1, ReserveSlots: 4, Faults: lose},
			{Name: "c2", AccelCost: 1, ReserveSlots: 4},
		})
		cfg.Doctor.DistinctStreams = 2
		c := mustCluster(t, cfg)
		submitAt(c, 1_000, StreamRequest{Name: "s0", Period: 75, Priority: 5})
		submitAt(c, 5_000, StreamRequest{Name: "s1", Period: 150, Priority: 1})
		c.Run(120_000)
		want := []string{
			"[  26921] migrated  c2/r-c0      eta=4 measured=160 bound=270 replay=0",
			"[  26970] retry     s0           migration superseded on c1; backs off 200 cycles",
			"[  27248] migrated  c1/s0        eta=4 measured=487 bound=600 replay=1",
			"[  27248] evacuated c0           2 migrated 0 shed measured=487 bound=600",
		}
		if got := pathEvents(c, 20_000); !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		wantSteps := []LadderStep{
			{At: 26921, Stream: "r-c0", Rung: "evacuate", From: "c0", To: "c2", Measured: 160, Bound: 270},
			{At: 27248, Stream: "s0", Rung: "evacuate", From: "c0", To: "c1", Measured: 487, Bound: 600, Replay: 1},
		}
		if got := c.LadderSteps(); !reflect.DeepEqual(got, wantSteps) {
			t.Errorf("ladder %+v, want %+v", got, wantSteps)
		}
	})

	t.Run("rebalance-busy-target", func(t *testing.T) {
		c := rebalanceFleet(t)
		release := holdInTransit(t, c)
		runUntilEvent(t, c, 160_000, "rebalance admit attempt 1 backs off")
		release()
		c.System().K.Run(160_000)
		want := []string{
			"[  40363] retry     s0           rebalance admit attempt 1 backs off 200 cycles",
			"[  40641] rebalanced c1/s0        from c0 eta=4 measured=641 bound=800 replay=0",
		}
		if got := pathEvents(c, 40_000); !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		wantSteps := []LadderStep{
			{At: 40641, Stream: "s0", Rung: "rebalance", From: "c0", To: "c1", Measured: 641, Bound: 800},
		}
		if got := c.LadderSteps(); !reflect.DeepEqual(got, wantSteps) {
			t.Errorf("ladder %+v, want %+v", got, wantSteps)
		}
	})

	t.Run("rebalance-budget-exhausted", func(t *testing.T) {
		c := rebalanceFleet(t)
		holdInTransit(t, c)
		c.System().K.Run(160_000)
		want := append(backoffs("s0", "rebalance admit", 40363),
			"[  56163] shed      s0           rebalance found no target; parked (measured=16163 bound=16270)",
			"[  71963] parked    s0           readmission budget exhausted; awaiting a heal",
		)
		if got := pathEvents(c, 40_000); !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		wantSteps := []LadderStep{
			{At: 56163, Stream: "s0", Rung: "shed", From: "c0", Measured: 16163, Bound: 16270},
		}
		if got := c.LadderSteps(); !reflect.DeepEqual(got, wantSteps) {
			t.Errorf("ladder %+v, want %+v", got, wantSteps)
		}
		if ss := statusOf(c, "s0"); ss.State != "parked" {
			t.Errorf("s0 state %s, want parked", ss.State)
		}
	})

	t.Run("placement-budget-exhausted", func(t *testing.T) {
		c := mustCluster(t, testConfig([]ChainSpec{{Name: "c0", AccelCost: 1, ReserveSlots: 4}}))
		c.Run(1_000)
		holdPair(t, c, "c0")
		submitAt(c, 2_000, StreamRequest{Name: "s0", Period: 75})
		c.System().K.Run(60_000)
		want := append(backoffs("s0", "placement", 2000),
			"[  17800] reject    s0           retry budget exhausted (targets busy)")
		if got := strings.Split(strings.TrimSpace(renderEvents(c)), "\n"); !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if ss := statusOf(c, "s0"); ss.State != "rejected" {
			t.Errorf("s0 state %s, want rejected", ss.State)
		}
	})
}

// TestDepartureDuringMigrationDeparts: a departure that arrives while its
// stream is between chains is deferred until the stream lands. When the
// placement loop instead runs out of targets, the stream departs rather
// than parking — on an evacuation and on a rebalance move alike.
func TestDepartureDuringMigrationDeparts(t *testing.T) {
	cases := []struct {
		name  string
		run   func(t *testing.T) *Controller
		event string
	}{
		{
			name: "evacuate",
			run: func(t *testing.T) *Controller {
				c := evacFleet(t)
				c.Run(19_000)
				holdPair(t, c, "c1")
				departAt(c, 30_000, "s0") // queued behind r-c0's backoffs
				c.System().K.Run(120_000)
				return c
			},
			event: "[  56538] depart    s0           departed during evacuation",
		},
		{
			name: "rebalance",
			run: func(t *testing.T) *Controller {
				c := rebalanceFleet(t)
				holdInTransit(t, c)
				departAt(c, 45_000, "s0") // mid-backoff, export in hand
				c.System().K.Run(160_000)
				return c
			},
			event: "[  56163] depart    s0           departed during rebalance",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.run(t)
			if ss := statusOf(c, "s0"); ss.State != "departed" {
				t.Fatalf("s0 state %s, want departed:\n%s", ss.State, renderEvents(c))
			}
			found := false
			for _, e := range c.Events() {
				r := FormatEvent(e)
				found = found || r == tc.event
				if e.Stream == "s0" && (e.Kind == EvShed || e.Kind == EvParked || e.Kind == EvReadmit) {
					t.Errorf("departing stream parked: %s", r)
				}
			}
			if !found {
				t.Errorf("no %q event:\n%s", tc.event, renderEvents(c))
			}
			for _, s := range c.LadderSteps() {
				if s.Stream == "s0" {
					t.Errorf("departing stream got a %s ladder step", s.Rung)
				}
			}
			if c.moving {
				t.Error("rebalancer still marked moving")
			}
		})
	}
}
