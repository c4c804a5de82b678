package analysis_test

import (
	"testing"

	"accelshare/internal/analysis"
	"accelshare/internal/analysis/analysistest"
)

func TestDeterminismFixture(t *testing.T) {
	// Fixtures live outside the module's covered import paths, so cover
	// everything the fixture loader hands the analyzer.
	all := func(string) bool { return true }
	analysistest.Run(t, "testdata", "determ", analysis.NewDeterminism(all))
}

func TestDeterminismCoverage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"accelshare/internal/admission", true},
		{"accelshare/internal/gateway", true},
		{"accelshare/internal/mpsoc", true},
		{"accelshare/internal/sim", true},
		{"accelshare/internal/trace", true},
		{"accelshare/internal/conformance", true},
		{"accelshare/internal/campaign", true},
		{"accelshare/cmd/accelshare", true},
		{"accelshare/internal/core", false},
		{"accelshare/internal/dataflow", false},
		{"accelshare/cmd/accellint", false},
		{"accelshare/internal/simulator", false}, // prefix of a covered name is not covered
	}
	for _, c := range cases {
		if got := analysis.DeterminismCovered(c.path); got != c.want {
			t.Errorf("DeterminismCovered(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
