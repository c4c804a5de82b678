package conformance

import (
	"math/big"
	"reflect"
	"testing"

	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

func oneBound() []StreamBounds {
	return []StreamBounds{{
		Name: "s", TauHat: 100, GammaHat: 300, Rate: big.NewRat(1, 10), Block: 16,
	}}
}

func rec(queued, started, done int64, retries int) gateway.BlockRecord {
	return gateway.BlockRecord{
		Queued: sim.Time(queued), Started: sim.Time(started),
		Done: sim.Time(done), Retries: retries,
	}
}

func kinds(r Result) []string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, v.Kind)
	}
	return out
}

func TestCheckDetectsEachViolationKind(t *testing.T) {
	records := [][]gateway.BlockRecord{{
		rec(0, 10, 100, 0),    // clean: lat 90 ≤ 100, turn 100 ≤ 300
		rec(100, 150, 300, 0), // tau: lat 150 > 100
		rec(300, 560, 650, 0), // gamma: turn 350 > 300 (lat 90 fine)
	}}
	res := Check(oneBound(), records, Options{})
	got := kinds(res)
	if len(got) != 2 || got[0] != "tau" || got[1] != "gamma" {
		t.Fatalf("violations = %v, want [tau gamma]", got)
	}
	if res.Checked != 3 {
		t.Fatalf("checked = %d, want 3", res.Checked)
	}
}

func TestSkipRetriedExemptsTauOnly(t *testing.T) {
	records := [][]gateway.BlockRecord{{
		rec(0, 10, 100, 0),
		rec(100, 150, 300, 2), // lat 150 > 100 but retried
		rec(300, 560, 650, 1), // turn 350 > 300: γ̂ still enforced on retries
	}}
	res := Check(oneBound(), records, Options{SkipRetried: true})
	got := kinds(res)
	if len(got) != 1 || got[0] != "gamma" {
		t.Fatalf("violations = %v, want [gamma] (tau exempt for retried blocks)", got)
	}
}

func TestReplayBoundChecksRetryWork(t *testing.T) {
	mk := func(replayed int64, retries int) gateway.BlockRecord {
		r := rec(0, 10, 100, retries)
		r.Replayed = replayed
		return r
	}
	records := [][]gateway.BlockRecord{{
		mk(0, 0), // clean first pass
		mk(4, 1), // one retry, replay ≤ K
		mk(8, 2), // two retries, 2·K total
		mk(9, 2), // 9 > 2·4 → replay violation
		mk(1, 0), // replay without a retry → violation
	}}
	res := Check(oneBound(), records, Options{ReplayBound: 4})
	got := kinds(res)
	if len(got) != 2 || got[0] != "replay" || got[1] != "replay" {
		t.Fatalf("violations = %v, want [replay replay]", got)
	}
	// Disabled (zero) bound checks nothing.
	res = Check(oneBound(), records, Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("violations with ReplayBound=0: %v", res.Violations)
	}
}

func TestFromModelCheckpointedAdjustsBounds(t *testing.T) {
	s := &core.System{
		Chain: core.Chain{EntryCost: 15, ExitCost: 15, AccelCosts: []uint64{15}},
		Streams: []core.Stream{
			{Name: "a", Reconfig: 4100, Block: 100, Rate: big.NewRat(44100, 1)},
			{Name: "b", Reconfig: 4100, Block: 100, Rate: big.NewRat(44100, 1)},
		},
		ClockHz: 100_000_000,
	}
	plain, err := FromModelCheckpointed(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := FromModelCheckpointed(s, 25, 60)
	if err != nil {
		t.Fatal(err)
	}
	// τ̂(K=25) = 4100 + (100 + 2·4)·15 + 3·60 = 5900 per stream; γ̂ = Σ τ̂.
	for i, sb := range ck {
		if sb.TauHat != 5900 {
			t.Errorf("stream %d: TauHat = %d, want 5900", i, sb.TauHat)
		}
		if sb.GammaHat != 2*5900 {
			t.Errorf("stream %d: GammaHat = %d, want %d", i, sb.GammaHat, 2*5900)
		}
		if sb.TauHat <= plain[i].TauHat {
			t.Errorf("stream %d: checkpointed tau-hat %d not above plain %d", i, sb.TauHat, plain[i].TauHat)
		}
	}
}

func TestAfterCutsTransients(t *testing.T) {
	records := [][]gateway.BlockRecord{{
		rec(0, 10, 500, 0),    // transient: violates both, done before the cut
		rec(500, 510, 600, 0), // clean
	}}
	res := Check(oneBound(), records, Options{After: 500})
	if len(res.Violations) != 0 || res.Checked != 1 {
		t.Fatalf("violations = %v checked = %d, want none/1", res.Violations, res.Checked)
	}
	// FilterQueued scopes on Queued instead: the transient was queued at 0,
	// the clean block at 500 (exclusive cut → also dropped).
	res = Check(oneBound(), records, Options{After: 500, FilterQueued: true, MinBlocks: 1})
	got := kinds(res)
	if len(got) != 1 || got[0] != "coverage" {
		t.Fatalf("violations = %v, want [coverage]", got)
	}
	res = Check(oneBound(), records, Options{After: 499, FilterQueued: true, MinBlocks: 1})
	if len(res.Violations) != 0 || res.Checked != 1 {
		t.Fatalf("violations = %v checked = %d, want none/1", res.Violations, res.Checked)
	}
}

func TestMinBlocksCoverage(t *testing.T) {
	res := Check(oneBound(), [][]gateway.BlockRecord{{rec(0, 10, 100, 0)}}, Options{MinBlocks: 5})
	got := kinds(res)
	if len(got) != 1 || got[0] != "coverage" {
		t.Fatalf("violations = %v, want [coverage]", got)
	}
	// An empty trace trivially "conforms" without the guard.
	res = Check(oneBound(), nil, Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("empty trace with MinBlocks 0: %v", res.Violations)
	}
	res = Check(oneBound(), nil, Options{MinBlocks: 1})
	if len(res.Violations) != 1 || res.Violations[0].Kind != "coverage" {
		t.Fatalf("violations = %v, want [coverage]", res.Violations)
	}
}

// TestOptionEdgeCases pins the scoping corners campaign code leans on:
// a cut past the last event empties the scope (silently green unless
// MinBlocks guards it), an unsatisfied MinBlocks short-circuits per-block
// checks entirely, MinBlocks equal to the trace length passes, and
// ReplayBound over a trace with zero retries demands zero replayed words.
func TestOptionEdgeCases(t *testing.T) {
	records := [][]gateway.BlockRecord{{
		rec(0, 10, 100, 0),
		rec(100, 110, 200, 0),
	}}

	// After beyond the last Done: everything out of scope. Without MinBlocks
	// the check is vacuously green — which is why every campaign pairs a
	// tail cut with MinBlocks.
	res := Check(oneBound(), records, Options{After: 200})
	if len(res.Violations) != 0 || res.Checked != 0 {
		t.Fatalf("violations = %v checked = %d, want none/0", res.Violations, res.Checked)
	}
	res = Check(oneBound(), records, Options{After: 200, MinBlocks: 1})
	if got := kinds(res); len(got) != 1 || got[0] != "coverage" {
		t.Fatalf("violations = %v, want [coverage]", got)
	}

	// An unsatisfied MinBlocks reports coverage INSTEAD of the per-block
	// checks: the one in-scope block here violates τ̂, but a partial trace
	// must not be double-reported as both missing and failing.
	bad := [][]gateway.BlockRecord{{rec(0, 10, 500, 0)}}
	res = Check(oneBound(), bad, Options{MinBlocks: 3})
	if got := kinds(res); len(got) != 1 || got[0] != "coverage" {
		t.Fatalf("violations = %v, want [coverage] only", got)
	}
	if res.Checked != 0 {
		t.Fatalf("checked = %d, want 0 for a stream failing coverage", res.Checked)
	}

	// MinBlocks exactly equal to the in-scope count is satisfied.
	res = Check(oneBound(), records, Options{MinBlocks: 2})
	if len(res.Violations) != 0 || res.Checked != 2 {
		t.Fatalf("violations = %v checked = %d, want none/2", res.Violations, res.Checked)
	}

	// ReplayBound with zero retries anywhere: allowed replay is 0·bound = 0,
	// so a clean trace passes and any replayed word is a finding.
	res = Check(oneBound(), records, Options{ReplayBound: 4})
	if len(res.Violations) != 0 {
		t.Fatalf("clean zero-retry trace with ReplayBound: %v", res.Violations)
	}
	leak := [][]gateway.BlockRecord{{rec(0, 10, 100, 0)}}
	leak[0][0].Replayed = 1
	res = Check(oneBound(), leak, Options{ReplayBound: 4})
	if got := kinds(res); len(got) != 1 || got[0] != "replay" {
		t.Fatalf("violations = %v, want [replay]", got)
	}
}

func TestThroughputFloor(t *testing.T) {
	// Each block is queued, started and done at once, so only the
	// throughput check can fire. μ = 1/10 with η = 16: a block every ≤ 160
	// cycles sustains the rate.
	at := func(done int64) gateway.BlockRecord { return rec(done, done, done, 0) }
	fast := [][]gateway.BlockRecord{{at(0), at(160), at(320), at(480)}}
	res := Check(oneBound(), fast, Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("sustained rate flagged: %v", res.Violations)
	}
	// One block per 1000 cycles delivers 16/1000 < 1/10.
	slow := [][]gateway.BlockRecord{{at(0), at(1000), at(2000)}}
	res = Check(oneBound(), slow, Options{})
	got := kinds(res)
	if len(got) != 1 || got[0] != "throughput" {
		t.Fatalf("violations = %v, want [throughput]", got)
	}
	// The boundary slack: completions γ̂-jittered around the nominal period
	// must NOT be flagged (a finite window can't resolve finer than γ̂).
	jitter := [][]gateway.BlockRecord{{at(0), at(160), at(320 + 299)}}
	res = Check(oneBound(), jitter, Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("γ̂-jittered completions flagged: %v", res.Violations)
	}
}

// TestTauBoundary: a service latency of exactly τ̂ passes and one cycle
// more is a tau violation.
func TestTauBoundary(t *testing.T) {
	for _, c := range []struct {
		lat  int64
		want []string
	}{{100, nil}, {101, []string{"tau"}}} {
		res := Check(oneBound(), [][]gateway.BlockRecord{{rec(0, 10, 10+c.lat, 0)}}, Options{})
		if got := kinds(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("latency %d: violations %v, want %v", c.lat, got, c.want)
		}
	}
}

// TestGammaBoundary: a turnaround of exactly γ̂ passes and γ̂ + 1 is a
// gamma violation.
func TestGammaBoundary(t *testing.T) {
	for _, c := range []struct {
		turn int64
		want []string
	}{{300, nil}, {301, []string{"gamma"}}} {
		// Started late, so the service latency (50) stays within τ̂.
		res := Check(oneBound(), [][]gateway.BlockRecord{{rec(0, c.turn-50, c.turn, 0)}}, Options{})
		if got := kinds(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("turnaround %d: violations %v, want %v", c.turn, got, c.want)
		}
	}
}

// TestThroughputWindowBoundary: the throughput floor applies to every span
// past γ̂, including spans in (γ̂, 2γ̂]. One block (16 samples) over a span
// of 2γ̂ = 600 cycles falls short of μ·(span − γ̂) = 30; the same block over
// γ̂ + 160 cycles meets its 16 exactly, and a span of exactly γ̂ is not
// checked.
func TestThroughputWindowBoundary(t *testing.T) {
	for _, c := range []struct {
		span int64
		want []string
	}{{600, []string{"throughput"}}, {460, nil}, {461, []string{"throughput"}}, {300, nil}} {
		end := 10 + c.span
		records := [][]gateway.BlockRecord{{rec(10, 10, 10, 0), rec(end, end, end, 0)}}
		res := Check(oneBound(), records, Options{})
		if got := kinds(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("span %d: violations %v, want %v", c.span, got, c.want)
		}
	}
}

// TestFromModel pins the derived bounds without checkpointing (K = 0) for
// the shared fault-test platform: ε=15, ρA=1, δ=1, Rs=50, η=16 over three
// streams → τ̂=320, γ̂=960 (Eq. 2/4).
func TestFromModel(t *testing.T) {
	sys := &core.System{
		Chain: core.Chain{
			Name: "m", AccelCosts: []uint64{1},
			EntryCost: 15, ExitCost: 1,
		},
		ClockHz: 1,
	}
	for _, n := range []string{"s0", "s1", "s2"} {
		sys.Streams = append(sys.Streams, core.Stream{
			Name: n, Rate: big.NewRat(1, 75), Reconfig: 50, Block: 16,
		})
	}
	bounds, err := FromModelCheckpointed(sys, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sb := range bounds {
		if sb.TauHat != 320 || sb.GammaHat != 960 || sb.Block != 16 {
			t.Fatalf("%s: τ̂=%d γ̂=%d η=%d, want 320/960/16", sb.Name, sb.TauHat, sb.GammaHat, sb.Block)
		}
		if sb.Rate.Cmp(big.NewRat(1, 75)) != 0 {
			t.Fatalf("%s: μ=%s, want 1/75", sb.Name, sb.Rate.RatString())
		}
	}
	// Unsolved block sizes must error, not divide by zero.
	sys.Streams[0].Block = 0
	if _, err := FromModelCheckpointed(sys, 0, 0); err == nil {
		t.Fatal("unsolved model accepted")
	}
}

// TestFromStreamsAlignsByName: slot order may change across admission or
// failover transitions; bounds without a matching stream read as an empty
// trace so MinBlocks catches the gap.
func TestFromStreamsAlignsByName(t *testing.T) {
	bounds := []StreamBounds{
		{Name: "a", TauHat: 100, GammaHat: 300, Block: 16},
		{Name: "b", TauHat: 100, GammaHat: 300, Block: 16},
	}
	sa := &gateway.Stream{Name: "a"}
	sa.Turnarounds = []gateway.BlockRecord{rec(0, 10, 100, 0)}
	res := FromStreams(bounds, []*gateway.Stream{sa}, Options{MinBlocks: 1})
	if len(res.Violations) != 1 || res.Violations[0].Stream != "b" || res.Violations[0].Kind != "coverage" {
		t.Fatalf("violations = %v, want coverage for the missing stream b", res.Violations)
	}
}
