package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"accelshare/internal/cluster"
	"accelshare/internal/fault"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// serveShort is the `accelshare serve -short` profile.
func serveShort() fleetProfile {
	p := serveProfile(serveSeed)
	p.horizon = 120_000
	p.cfg.Chains = nil
	for i, cost := range []sim.Time{1, 1, 1, 1, 25, 25} {
		p.cfg.Chains = append(p.cfg.Chains, cluster.ChainSpec{Name: fmt.Sprintf("c%d", i), AccelCost: cost, ReserveSlots: 6})
	}
	p.traffic = cluster.Profile{
		Seed: serveSeed, Start: 1_000, End: 60_000,
		MeanSpacing: 2_000, MinLifetime: 10_000, MeanLifetime: 20_000,
		Periods: []int64{300, 600}, Priorities: []int{1, 5},
		DiurnalPeriod: 60_000, DiurnalAmplitude: 50,
		FlashAt: 40_000, FlashCount: 4, FlashSpacing: 200, FlashPeriod: 300,
	}
	p.cfg.Rebalance.Every, p.cfg.Rebalance.Start, p.cfg.Rebalance.Stop = 5_000, 20_000, 85_000
	p.conf.After = 90_000
	p.minAdmitted = 20
	return p
}

// chaosShort is the `accelshare chaos -short` profile.
func chaosShort() fleetProfile {
	wedge := func(at sim.Time) *fault.Plan {
		return &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: at}}}
	}
	p := chaosProfile(chaosSeed)
	p.horizon = 90_000
	p.cfg.Chains = []cluster.ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 4, Faults: wedge(15_000)},
		{Name: "c1", AccelCost: 1, ReserveSlots: 4, Faults: wedge(35_000)},
		{Name: "sp0", AccelCost: 1, ReserveSlots: 4, Spare: true},
		{Name: "sp1", AccelCost: 1, ReserveSlots: 4, Spare: true, OnlineAt: 55_000},
	}
	p.traffic = cluster.Profile{
		Seed: chaosSeed, Start: 1_000, End: 30_000,
		MeanSpacing: 5_000, MinLifetime: 20_000, MeanLifetime: 30_000,
		Periods: []int64{75, 150}, Priorities: []int{1, 5},
		FlashAt: 25_000, FlashCount: 3, FlashSpacing: 150,
		FlashPeriod: 150, FlashLifetime: 20_000,
	}
	p.conf.After = 70_000
	return p
}

// observeUnit runs u (already set up) and returns its observation.
func observeUnit(t *testing.T, u unit, tr *tracer) *observation {
	t.Helper()
	if err := u.run(tr, func() {}); err != nil {
		t.Fatal(err)
	}
	return checkObserve(t, u)
}

func checkObserve(t *testing.T, u unit) *observation {
	t.Helper()
	if err := u.check(); err != nil {
		t.Fatal(err)
	}
	o := newObservation()
	u.observe(o)
	o.finish()
	return o
}

// commandRun runs p the way the accelshare command does: the solver as
// configured, cluster.Schedule, and one Run to the horizon.
func commandRun(t *testing.T, p fleetProfile) *fleetUnit {
	t.Helper()
	u := newFleetUnit(p)
	c, err := cluster.New(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.c, u.ops = c, p.traffic.Ops()
	cluster.Schedule(c, u.ops)
	c.Run(p.horizon)
	if u.conf, err = c.Conformance(p.conf); err != nil {
		t.Fatal(err)
	}
	return u
}

// golden reads one of the accelshare command's golden transcripts.
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "cmd", "accelshare", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// serveSummary formats a fleet's traffic and stream totals as the serve
// transcript prints them.
func serveSummary(c *cluster.Controller) []string {
	counts := map[cluster.EventKind]int{}
	for _, e := range c.Events() {
		counts[e.Kind]++
	}
	var blocks, samples, overflows uint64
	for _, ss := range c.StreamStatuses() {
		blocks += ss.Blocks
		samples += ss.Samples
		overflows += ss.Overflow
	}
	return []string{
		fmt.Sprintf("admitted=%d rejected=%d departed=%d shed=%d readmitted=%d lost=%d retries=%d",
			counts[cluster.EvArrive], counts[cluster.EvReject], counts[cluster.EvDepart],
			counts[cluster.EvShed], counts[cluster.EvReadmit], counts[cluster.EvLost], counts[cluster.EvRetry]),
		fmt.Sprintf("blocks=%d samples=%d overflows=%d", blocks, samples, overflows),
	}
}

// TestProfilesMatchCommand pins the benchmark's copies of the campaign
// profiles to the accelshare command's golden transcripts: the chaos
// -short fleet event log line for line, and the serve traffic and stream
// totals of the -short and full profiles.
func TestProfilesMatchCommand(t *testing.T) {
	t.Run("chaos-short", func(t *testing.T) {
		u := commandRun(t, chaosShort())
		g := golden(t, "chaos_short.golden")
		_, rest, ok := strings.Cut(g, "fleet events ===\n")
		want, _, _ := strings.Cut(rest, "\n\n")
		if !ok {
			t.Fatal("chaos_short.golden has no fleet event section")
		}
		var got []string
		for _, e := range u.c.Events() {
			got = append(got, cluster.FormatEvent(e))
		}
		if strings.Join(got, "\n") != want {
			t.Fatalf("chaos -short events differ from chaos_short.golden:\n%s", strings.Join(got, "\n"))
		}
	})
	for _, tc := range []struct {
		name, file string
		profile    func() fleetProfile
	}{
		{"serve-short", "serve_short.golden", serveShort},
		{"serve", "serve.golden", func() fleetProfile { return serveProfile(serveSeed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "serve" && testing.Short() {
				t.Skip("full serve campaign")
			}
			u := commandRun(t, tc.profile())
			g := golden(t, tc.file)
			for _, line := range serveSummary(u.c) {
				if !strings.Contains(g, "\n"+line+"\n") {
					t.Errorf("%s has no line %q", tc.file, line)
				}
			}
		})
	}
}

// TestSegmentedRunMatches: running a platform in measured segments, with
// reference jobs between them, gives the same outputs and counters as one
// run to the horizon.
func TestSegmentedRunMatches(t *testing.T) {
	sv := func() *timedSolver { return &timedSolver{Inner: solve.Default(0, 0), counts: newSolveCounts()} }
	var m refMeter
	whole, seg := newPALUnit(), newPALUnit()
	for _, u := range []*palUnit{whole, seg} {
		if err := u.setup(nil, sv()); err != nil {
			t.Fatal(err)
		}
	}
	whole.d.Run(whole.horizon)
	m.startCPU()
	if err := seg.run(nil, m.pause); err != nil {
		t.Fatal(err)
	}
	if d := checkObserve(t, whole).diff(checkObserve(t, seg)); d != "" {
		t.Fatalf("segmented pal run differs: %s", d)
	}
	if want := 1 + int(seg.horizon/palSegment); m.jobs != want {
		t.Fatalf("%d reference jobs, want one to start and one per segment (%d)", m.jobs, want)
	}
	if m.measured <= 0 || m.scaled <= 0 {
		t.Fatalf("measured %v, scaled %v", m.measured, m.scaled)
	}

	p := chaosShort()
	u := newFleetUnit(p)
	if err := u.setup(nil, sv()); err != nil {
		t.Fatal(err)
	}
	if d := checkObserve(t, commandRun(t, p)).diff(observeUnit(t, u, nil)); d != "" {
		t.Fatalf("segmented chaos -short run differs: %s", d)
	}
}

// TestTimedSolverTransparent: the traced solver wrapper keeps the inner
// solver's name and results, and a fleet run through it, with traffic
// scheduled as spans, produces the same outputs and counters as the
// command's way of running the campaign.
func TestTimedSolverTransparent(t *testing.T) {
	inner := solve.Default(0, 0)
	counts := newSolveCounts()
	sv := &timedSolver{Inner: inner, tr: newTracer(), counts: counts}
	if sv.Name() != inner.Name() {
		t.Fatalf("Name() = %q, want %q", sv.Name(), inner.Name())
	}
	p := pal.DefaultParams()
	prob := &solve.Problem{Model: pal.AnalysisModel(p), Granularity: []int64{8, 8, 8, 8}}
	want, err := inner.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.Solve(prob)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped Solve = %+v, %v; want %+v", got, err, want)
	}
	if counts.calls != 1 || counts.paths[want.Path] != 1 || counts.rounds != want.Rounds {
		t.Fatalf("counts = %+v after one %s solve", counts, want.Path)
	}

	for _, p := range []fleetProfile{serveShort(), chaosShort()} {
		t.Run(p.name, func(t *testing.T) {
			base := checkObserve(t, commandRun(t, p))
			tr := newTracer()
			traced := newFleetUnit(p)
			sv := &timedSolver{Inner: solve.Default(0, 0), tr: tr, counts: newSolveCounts()}
			if err := traced.setup(tr, sv); err != nil {
				t.Fatal(err)
			}
			if d := base.diff(observeUnit(t, traced, tr)); d != "" {
				t.Fatalf("traced run differs: %s", d)
			}
			if sv.counts.calls == 0 {
				t.Fatal("no solve went through the wrapper")
			}
			self := selfTimes(tr.spans)
			for _, name := range []string{spanSubmit, spanDepart, spanSolve, spanConformance} {
				if _, ok := self[name]; !ok {
					t.Errorf("no %s span recorded", name)
				}
			}
		})
	}
}

// TestSelfTimes checks span self time: a span's duration minus the
// durations of its direct children, summed per name.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: spanRep, Parent: -1, Start: 0, End: 100 * ms},
		{Name: spanSetup, Parent: 0, Start: 0, End: 10 * ms},
		{Name: spanSolve, Parent: 1, Start: 2 * ms, End: 6 * ms},
		{Name: spanRun, Parent: 0, Start: 10 * ms, End: 100 * ms},
		{Name: spanSubmit, Key: "s00", Parent: 3, Start: 20 * ms, End: 30 * ms},
		{Name: spanSolve, Parent: 4, Start: 21 * ms, End: 29 * ms},
		{Name: spanDepart, Key: "s00", Parent: 3, Start: 40 * ms, End: 45 * ms},
		{Name: spanConformance, Parent: 3, Start: 90 * ms, End: 100 * ms},
	}
	want := map[string]time.Duration{
		spanRep:         0,
		spanSetup:       6 * ms,
		spanSolve:       12 * ms,
		spanRun:         65 * ms,
		spanSubmit:      2 * ms,
		spanDepart:      5 * ms,
		spanConformance: 10 * ms,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	a := tr.begin(spanRun, "")
	b := tr.begin(spanSubmit, "s01")
	tr.end(b)
	c := tr.begin(spanDepart, "s01")
	tr.end(c)
	tr.end(a)
	if tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Fatalf("parent links: %+v", tr.spans)
	}
	var none *tracer
	if id := none.begin(spanRun, ""); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	none.end(-1)
}

// TestOperationAccounting checks attempted and failed operations on the
// chaos -short campaign, whose transcript lists ten arrivals (s00–s06,
// f00–f02) of which s06 is rejected and none ends parked or lost.
func TestOperationAccounting(t *testing.T) {
	u := newFleetUnit(chaosShort())
	if err := u.setup(nil, &timedSolver{Inner: solve.Default(0, 0), counts: newSolveCounts()}); err != nil {
		t.Fatal(err)
	}
	o := observeUnit(t, u, nil)
	if o.attempted != 10 || o.failed != 1 {
		t.Fatalf("operations %d attempted %d failed, want 10 and 1", o.attempted, o.failed)
	}
	if o.counts["cluster.arrivals"] != 10 || o.counts["cluster.rejected"] != 1 || o.counts["cluster.lost"] != 0 {
		t.Fatalf("cluster counters: %v", o.counts)
	}
	if o.counts["cluster.ladder.shed"] == 0 || o.counts["cluster.ladder.failover"] == 0 {
		t.Fatalf("ladder counters: %v", o.counts)
	}
}

// TestRefMeterScaling checks the interval arithmetic: each interval is
// scaled by refNominal over the mean of the reference jobs on either side.
func TestRefMeterScaling(t *testing.T) {
	ms := time.Millisecond
	m := refMeter{prevJob: refNominal}
	m.add(10*ms, refNominal)   // host at reference speed: unchanged
	m.add(10*ms, 3*refNominal) // jobs 1x and 3x: mean 2x, so half
	m.add(4*ms, 3*refNominal)  // both 3x: a third
	if m.measured != 24*ms {
		t.Fatalf("measured %v, want 24ms", m.measured)
	}
	want := float64(10*ms + 5*ms)
	want += float64(4*ms) / 3
	if math.Abs(m.scaled-want) > 1 {
		t.Fatalf("scaled %.0f ns, want %.0f", m.scaled, want)
	}
	r := &repResult{runRef: m, cycles: 1000}
	if got := r.cpuNsPerCycle(); math.Abs(got-want/1000) > 1e-6 {
		t.Fatalf("cpuNsPerCycle %v, want %v", got, want/1000)
	}
}

func TestPercentile(t *testing.T) {
	xs := []uint64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %d", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Fatalf("p99 = %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 = %d", got)
	}
}

// TestMetricsMatchBenchmarkFile: the metrics a run prints are the ones
// BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark has %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	res, err := measure(workloads[0], time.Nanosecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("run prints %d end-to-end metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): run printed %+v", m.Name, m.Unit, got)
		}
	}
}
