package main

// Smoke tests: every experiment command must run to completion without
// error on its default arguments. The expensive simulation commands are
// trimmed via flags where possible and skipped under -short.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCommandRegistry(t *testing.T) {
	if len(commands) < 10 {
		t.Fatalf("only %d commands registered", len(commands))
	}
	seen := map[string]bool{}
	for _, c := range commands {
		if c.name == "" || c.brief == "" || c.run == nil {
			t.Errorf("malformed command %+v", c)
		}
		if seen[c.name] {
			t.Errorf("duplicate command %q", c.name)
		}
		seen[c.name] = true
	}
}

func lookupCmd(t *testing.T, name string) command {
	t.Helper()
	for _, c := range commands {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("command %q not registered", name)
	return command{}
}

func runCmd(t *testing.T, name string, args ...string) {
	t.Helper()
	if err := lookupCmd(t, name).run(args); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestAnalysisCommands(t *testing.T) {
	runCmd(t, "blocksizes")
	runCmd(t, "blocksizes", "-granularity", "8")
	runCmd(t, "fig8", "-max", "6")
	runCmd(t, "fig11")
	runCmd(t, "table1")
	runCmd(t, "breakeven")
	runCmd(t, "refinement", "-eta", "4", "-tokens", "16")
	runCmd(t, "fig6", "-eta", "8")
}

func TestMemOptCommand(t *testing.T) {
	runCmd(t, "memopt", "-window", "3")
}

func TestSharingSweepCommand(t *testing.T) {
	runCmd(t, "sharing-sweep")
}

func TestDotCommand(t *testing.T) {
	runCmd(t, "dot", "-eta", "4")
	runCmd(t, "dot", "-eta", "4", "-sdf")
}

func TestRotationCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("rotation runs the PAL simulation")
	}
	runCmd(t, "rotation", "-seconds", "0.008")
}

func TestRingVsCrossbarCommand(t *testing.T) {
	runCmd(t, "ring-vs-crossbar", "-words", "64")
}

func TestFlowControlCommand(t *testing.T) {
	runCmd(t, "ablation-flowcontrol", "-words", "256")
}

func TestSimulationCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation commands are expensive")
	}
	runCmd(t, "paldemo", "-seconds", "0.01")
	runCmd(t, "utilization", "-seconds", "0.01")
	runCmd(t, "utilization", "-sw-state")
	runCmd(t, "ablation-spacecheck")
	runCmd(t, "ablation-arbiter")
}

func TestFaultsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("the fault campaign runs many scenarios")
	}
	runCmd(t, "faults", "-horizon", "50000")
}

func TestAdmitCommand(t *testing.T) {
	runCmd(t, "admit", "-horizon", "60000")
}

func TestFailoverCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("the failover campaign runs four scenarios")
	}
	runCmd(t, "failover", "-horizon", "60000")
}

// TestFailoverScriptFailsCampaign: a -script plan that breaks contiguity
// fails the campaign, and the two scenarios it replaced carry its name.
func TestFailoverScriptFailsCampaign(t *testing.T) {
	script := filepath.Join(t.TempDir(), "corrupt.txt")
	if err := os.WriteFile(script, []byte("0 corrupt-sample stream=0 site=0 sample=24 mask=255\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := failoverCampaign(&out, 60_000, script); err == nil {
		t.Error("a campaign with BROKEN streams returned no error")
	}
	if got := out.String(); strings.Count(got, "--- script corrupt.txt (") != 2 || strings.Contains(got, "wedge-link") {
		t.Errorf("the scenarios the script replaced are not labelled after it:\n%s", got)
	}
}

// TestBadFlagsRejected: besides an unknown flag, each of these values would
// hang (an endless source or a zero injection period), panic, or print a
// meaningless result (self-sends, zero words, a NaN mean, 0-sample packets,
// a claim about α(5) without α(5), an unset block size, a decode of no
// signal, a negative search window or rounding step) if it reached the
// simulation. main prefixes every error with the command's name, so no
// error text starts with it.
func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"fig6", "-definitely-not-a-flag"},
		{"ring-vs-crossbar", "-period", "0"},
		{"ring-vs-crossbar", "-nodes", "2"},
		{"ring-vs-crossbar", "-words", "0"},
		{"ablation-flowcontrol", "-words", "0"},
		{"blocksizes", "-clock", "0"},
		{"blocksizes", "-granularity", "-1"},
		{"sharing-sweep", "-clock", "0"},
		{"refinement", "-tokens", "0"},
		{"refinement", "-eta", "0"},
		{"fig6", "-eta", "0"},
		{"dot", "-eta", "0"},
		{"paldemo", "-seconds", "-1"},
		{"paldemo", "-seconds", "0"},
		{"utilization", "-seconds", "-1"},
		{"utilization", "-seconds", "0"},
		{"rotation", "-seconds", "-1"},
		{"rotation", "-seconds", "0"},
		{"admit", "-reserve", "-1"},
		{"admit", "-horizon", "-1"},
		{"faults", "-horizon", "-1"},
		{"failover", "-horizon", "-1"},
		{"chaos", "-seed", "0"},
		{"serve", "-seed", "0"},
		{"fig8", "-max", "4"},
		{"dot", "-accels", "-1"},
		{"rotation", "-width", "0"},
		{"memopt", "-burst", "0"},
		{"memopt", "-window", "-1"},
	} {
		err := lookupCmd(t, args[0]).run(args[1:])
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if strings.HasPrefix(err.Error(), args[0]+":") {
			t.Errorf("%v: error %q names its command, which main already prefixes", args, err)
		}
	}
}
