package main

// The campaign table: each row runs its campaign twice and requires
// byte-identical output, compares it with the row's golden when it has
// one, and requires the lines that show the campaign did what it claims.
// After verifying a behavioural change that legitimately moves the
// output, regenerate with -update (one row:
// -run 'TestCampaigns/^serve-short$') and review the diff.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"accelshare/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite testdata golden files with current campaign output")

const (
	allContiguous = "every live stream contiguous (zero lost or duplicated samples): true"
	noViolations  = "fleet conformance violations: 0"
)

type campaignRow struct {
	name   string
	golden string // testdata file; "" pins run-to-run determinism only
	long   bool   // skipped under -short
	kernel bool   // replayed by TestKernelGoldenRegression
	run    func(w io.Writer) error
	want   []string // fragments the output must contain
	count  string   // a fragment the output must contain at least min times
	min    int
}

var admitRow = campaignRow{name: "admit", golden: "admit.golden", kernel: true,
	run: func(w io.Writer) error { return admitCampaign(w, defaultAdmitScript, 60_000, 2) },
	want: []string{"add s5: admitted", "remove s4: admitted", "readmit s4: admitted",
		"canary-pass s4", "rejected (infeasible)"}}

var campaignRows = []campaignRow{
	{name: "faults", golden: "faults.golden", long: true, kernel: true,
		run: func(w io.Writer) error { return faultCampaign(w, 50_000) }},
	{name: "faults-100k", long: true, run: func(w io.Writer) error { return faultCampaign(w, 100_000) }},
	admitRow,
	{name: "failover", golden: "failover.golden", kernel: true,
		run: func(w io.Writer) error { return failoverCampaign(w, 60_000, "") },
		want: []string{"within-bound=true", "re-solved for the standby chain",
			"not triggered (per-stream recovery handled the fault)", "zero lost or duplicated"}},
	{name: "chaos-short", golden: "chaos_short.golden", kernel: true,
		run: func(w io.Writer) error { return fleetCampaign(w, campaign.Chaos(true, 1789), true, renderChaos) },
		want: []string{"failover ", "evacuate ", "shed ", "readmit ",
			"all ladder steps within bound: true", allContiguous, noViolations}},
	// The full soak has no golden; its kills header is in time order.
	{name: "chaos", long: true,
		run: func(w io.Writer) error { return fleetCampaign(w, campaign.Chaos(false, 1789), false, renderChaos) },
		want: []string{"] heal ", "] shed ", "] readmit ",
			"kills: c0@40000 c2@90000 c1@120000  flash:", noViolations},
		count: "] verdict ", min: 3},
	{name: "serve-short", golden: "serve_short.golden",
		run:   func(w io.Writer) error { return fleetCampaign(w, campaign.Serve(true, 24601), true, renderServe) },
		want:  []string{"all rebalance moves within composed bound: true", allContiguous, noViolations},
		count: "within-bound=true", min: 1},
	// "f0": the rebalancer migrated a flash-crowd stream.
	{name: "serve", golden: "serve.golden", long: true,
		run: func(w io.Writer) error { return fleetCampaign(w, campaign.Serve(false, 24601), false, renderServe) },
		want: []string{"f0", "all rebalance moves within composed bound: true",
			allContiguous, noViolations},
		count: "within-bound=true", min: 10},
}

func TestCampaigns(t *testing.T) {
	for _, row := range campaignRows {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skipf("%s campaign is long", row.name)
			}
			matchGolden(t, row, runTwice(t, row))
		})
	}
}

// TestAdmitDeterministic and TestAdmitGolden are the admit row's two
// halves under the names they had before the table, so -run TestAdmit
// still selects every admission test.
func TestAdmitDeterministic(t *testing.T) { runTwice(t, admitRow) }

func TestAdmitGolden(t *testing.T) { matchGolden(t, admitRow, runOnce(t, admitRow)) }

// Kernel-swap regression gate: the goldens of the rows marked kernel were
// recorded on the binary-heap kernel the timing wheel replaced. Each runs
// once and must match byte for byte, with NO -update escape hatch: a diff
// is a kernel bug (ordering, cascade, or horizon semantics), never a
// golden refresh.
func TestKernelGoldenRegression(t *testing.T) {
	for _, row := range campaignRows {
		if !row.kernel {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skipf("%s campaign is long", row.name)
			}
			if err := diffGolden(row.golden, runOnce(t, row)); err != nil {
				t.Fatalf("kernel schedule diverged from the pre-wheel golden: %v", err)
			}
		})
	}
}

func runOnce(t *testing.T, row campaignRow) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := row.run(&out); err != nil {
		t.Fatalf("%s campaign: %v", row.name, err)
	}
	return out.Bytes()
}

// runTwice runs a row's campaign twice, requires byte-identical output
// and the lines the row wants, and returns the output.
func runTwice(t *testing.T, row campaignRow) []byte {
	t.Helper()
	got := runOnce(t, row)
	if !bytes.Equal(got, runOnce(t, row)) {
		t.Fatal("output differs between two identical runs")
	}
	for _, want := range row.want {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("output missing %q", want)
		}
	}
	if n := bytes.Count(got, []byte(row.count)); row.count != "" && n < row.min {
		t.Errorf("%d lines with %q, want >= %d", n, row.count, row.min)
	}
	return got
}

// matchGolden compares got with the row's golden, if it has one, or
// rewrites the golden under -update.
func matchGolden(t *testing.T, row campaignRow, got []byte) {
	t.Helper()
	switch {
	case row.golden == "":
	case *update:
		if err := os.WriteFile(filepath.Join("testdata", row.golden), got, 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		if err := diffGolden(row.golden, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetCampaignAppliesCheck: a fleet campaign that misses its
// acceptance (here chaos -short held to an admission floor) fails.
func TestFleetCampaignAppliesCheck(t *testing.T) {
	f := campaign.Chaos(true, 1789)
	f.MinAdmitted = 1_000
	if err := fleetCampaign(io.Discard, f, true, renderChaos); err == nil || !bytes.Contains([]byte(err.Error()), []byte("lifetimes admitted")) {
		t.Fatalf("chaos -short with an admission floor of 1000 returned %v", err)
	}
}

// diffGolden compares got with testdata/<name> and names the first
// divergent line.
func diffGolden(name string, got []byte) error {
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("output diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("output diverged from %s: got %d lines, want %d lines", path, len(gl), len(wl))
}
