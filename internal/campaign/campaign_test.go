package campaign

import (
	"strings"
	"testing"

	"accelshare/internal/cluster"
	"accelshare/internal/conformance"
)

// TestCheckRefusals: each of the four ways a fleet run can break the
// acceptance is refused on its own, by an error that names it, while the
// same values without the defect pass.
func TestCheckRefusals(t *testing.T) {
	steps := func(measured uint64) []cluster.LadderStep {
		return []cluster.LadderStep{{At: 5_000, Stream: "s01", Rung: "rebalance", From: "c0", To: "c1", Measured: measured, Bound: 400}}
	}
	streams := func(contiguous bool) []cluster.StreamStatus {
		return []cluster.StreamStatus{
			{Name: "s01", Chain: "c1", State: "live", ContiguousOutputs: true},
			{Name: "s02", Chain: "c0", State: "live", ContiguousOutputs: contiguous},
			// A departed stream's contiguity is not the acceptance's concern.
			{Name: "s03", State: "departed"},
		}
	}
	conf := func(violations int) []cluster.ChainConformance {
		cc := cluster.ChainConformance{Chain: "c1", Streams: 2, Result: conformance.Result{Checked: 12}}
		for i := 0; i < violations; i++ {
			cc.Result.Violations = append(cc.Result.Violations, conformance.Violation{Stream: "s01", Kind: "gamma", Block: 7, Detail: "turnaround 990 > γ̂ 960"})
		}
		return []cluster.ChainConformance{{Chain: "c0", Streams: 1, Result: conformance.Result{Checked: 9}}, cc}
	}
	if err := Check(steps(400), streams(true), conf(0), 20, 20); err != nil {
		t.Fatalf("a clean run at its bounds and floor was refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"ladder step over its bound", Check(steps(401), streams(true), conf(0), 20, 20), "measured 401 > bound 400"},
		{"non-contiguous live stream", Check(steps(400), streams(false), conf(0), 20, 20), "live stream s02 lost or duplicated samples"},
		{"conformance violation", Check(steps(400), streams(true), conf(2), 20, 20), "chain c1: 2 conformance violations"},
		{"admissions below the floor", Check(steps(400), streams(true), conf(0), 19, 20), "19 lifetimes admitted, want >= 20"},
	} {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name it (want %q)", tc.name, tc.err, tc.want)
		}
	}
}
