package cluster

import (
	"fmt"
	"sort"
	"testing"

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
		if cmp := want[a].ctrl.Utilization().Cmp(want[b].ctrl.Utilization()); cmp != 0 {
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
