package solve

import (
	"fmt"
	"math/big"
	"testing"

	"accelshare/internal/core"
)

// rebalanceFleet builds n identical chains (c0 = 4) with no streams; load
// is added per test via addLoad.
func rebalanceFleet(n int) []*core.System {
	out := make([]*core.System, n)
	for i := range out {
		out[i] = &core.System{
			Chain: core.Chain{
				Name:       string(rune('A' + i)),
				AccelCosts: []uint64{4},
				EntryCost:  1,
				ExitCost:   2,
				NICapacity: 2,
			},
			ClockHz: 1_000_000,
		}
	}
	return out
}

// loadsOf returns each chain's utilisation, as the admission controllers
// hand it to PlanRebalance.
func loadsOf(fleet []*core.System) []core.Load {
	out := make([]core.Load, len(fleet))
	for i, m := range fleet {
		out[i] = m.Load()
	}
	return out
}

// addLoad appends a stream of utilisation num/den (μ·c0 exact) to chain m.
func addLoad(m *core.System, name string, num, den int64) {
	c0 := int64(m.Chain.C0())
	m.Streams = append(m.Streams, core.Stream{
		Name: name,
		Rate: big.NewRat(num*m.ClockHz, den*c0),
	})
}

func TestPlanRebalanceMovesHotToCold(t *testing.T) {
	fleet := rebalanceFleet(3)
	// A at 6/10, B at 2/10, C at 1/10: spread 1/2.
	addLoad(fleet[0], "a0", 2, 10)
	addLoad(fleet[0], "a1", 2, 10)
	addLoad(fleet[0], "a2", 2, 10)
	addLoad(fleet[1], "b0", 2, 10)
	addLoad(fleet[2], "c0", 1, 10)
	cands := []MoveCandidate{
		{Name: "a0", Chain: 0, Rate: fleet[0].Streams[0].Rate, Residue: 4},
		{Name: "a1", Chain: 0, Rate: fleet[0].Streams[1].Rate, Residue: 0},
		{Name: "a2", Chain: 0, Rate: fleet[0].Streams[2].Rate, Residue: 0},
	}
	moves := PlanRebalance(fleet, loadsOf(fleet), cands, 8, core.Load{})
	if len(moves) == 0 {
		t.Fatal("no moves planned for a 5:1 hot/cold spread")
	}
	// Victim selection is smallest-residue-first, name as tie-break: a1
	// (residue 0) must move before a0 (residue 4).
	if moves[0].Name != "a1" || moves[0].From != 0 || moves[0].To != 2 {
		t.Fatalf("first move = %+v, want a1 from 0 to 2 (smallest residue to coldest)", moves[0])
	}
	for _, mv := range moves {
		if mv.From != 0 {
			t.Fatalf("move %+v leaves a non-hot chain", mv)
		}
	}
	// Models must not be mutated by planning.
	if got := fleet[0].Load().Rat(); got.Cmp(big.NewRat(6, 10)) != 0 {
		t.Fatalf("planning mutated chain A utilisation: %v", got)
	}
}

// TestPlanRebalanceZeroAllocPerCandidate backs the //accellint:noalloc
// annotation on PlanRebalance: the plan allocates its working copies and
// its moves, nothing per candidate. A at 9/10 and B at 1/2; every
// residue-0 candidate (6/10 on B) would overload B, so the scan weighs
// each of them before the residue-1 one (1/10) moves. The plan is the same
// single move at 4 and at 64 rejected candidates, and so is the count.
func TestPlanRebalanceZeroAllocPerCandidate(t *testing.T) {
	fleet := rebalanceFleet(2)
	addLoad(fleet[0], "a", 9, 10)
	addLoad(fleet[1], "b", 1, 2)
	loads := loadsOf(fleet)
	c0 := int64(fleet[1].Chain.C0())
	big6, small := big.NewRat(6*fleet[1].ClockHz, 10*c0), big.NewRat(fleet[0].ClockHz, 10*c0)
	allocs := map[int]float64{}
	for _, n := range []int{4, 64} {
		cands := []MoveCandidate{{Name: "last", Chain: 0, Rate: small, Residue: 1}}
		for i := 0; i < n; i++ {
			cands = append(cands, MoveCandidate{Name: fmt.Sprintf("x%03d", i), Chain: 0, Rate: big6})
		}
		moves := PlanRebalance(fleet, loads, cands, 1, core.Load{})
		if len(moves) != 1 || moves[0] != (Move{Name: "last", From: 0, To: 1}) {
			t.Fatalf("%d rejected candidates: planned %+v, want last from 0 to 1", n, moves)
		}
		allocs[n] = testing.AllocsPerRun(100, func() { PlanRebalance(fleet, loads, cands, 1, core.Load{}) })
	}
	if allocs[4] != allocs[64] {
		t.Fatalf("PlanRebalance allocs: %v at 4 candidates, %v at 64; want no per-candidate allocation", allocs[4], allocs[64])
	}
}

func TestPlanRebalanceStopsAtLowWater(t *testing.T) {
	fleet := rebalanceFleet(2)
	addLoad(fleet[0], "a0", 1, 10)
	addLoad(fleet[0], "a1", 1, 10)
	addLoad(fleet[0], "a2", 1, 10)
	addLoad(fleet[0], "a3", 1, 10)
	cands := make([]MoveCandidate, 4)
	for i := range cands {
		cands[i] = MoveCandidate{Name: fleet[0].Streams[i].Name, Chain: 0, Rate: fleet[0].Streams[i].Rate}
	}
	// Spread starts at 4/10; low water 2/10 should allow exactly one move
	// (4/10 → 2/10), not balance all the way to 0.
	moves := PlanRebalance(fleet, loadsOf(fleet), cands, 8, core.LoadOf(big.NewRat(2, 10)))
	if len(moves) != 1 {
		t.Fatalf("planned %d moves, want 1 (stop at low water)", len(moves))
	}
}

func TestPlanRebalanceRespectsBudgetAndFit(t *testing.T) {
	fleet := rebalanceFleet(2)
	addLoad(fleet[0], "a0", 3, 10)
	addLoad(fleet[0], "a1", 3, 10)
	addLoad(fleet[0], "a2", 3, 10)
	// B is nearly full: only a chain with room may receive.
	addLoad(fleet[1], "b0", 9, 10)
	cands := []MoveCandidate{
		{Name: "a0", Chain: 0, Rate: fleet[0].Streams[0].Rate},
		{Name: "a1", Chain: 0, Rate: fleet[0].Streams[1].Rate},
		{Name: "a2", Chain: 0, Rate: fleet[0].Streams[2].Rate},
	}
	if moves := PlanRebalance(fleet, loadsOf(fleet), cands, 8, core.Load{}); len(moves) != 0 {
		t.Fatalf("planned %d moves onto a 9/10-loaded chain (3/10 each cannot fit)", len(moves))
	}
	// The fit gate is strict (Σ μs·c0 < 1). C's c0 is 10× A's, so a0 (1/20
	// on A) would add 1/2 on C. The move shrinks the spread either way, so
	// only the gate decides: landing C at exactly 1 is refused, at 99/100
	// it is planned.
	for _, tc := range []struct {
		cNum, cDen int64
		want       int
	}{{1, 2, 0}, {49, 100, 1}} {
		fleet3 := rebalanceFleet(3)
		fleet3[2].Chain.AccelCosts = []uint64{40}
		addLoad(fleet3[0], "a0", 1, 20)
		addLoad(fleet3[0], "a1", 18, 20)
		addLoad(fleet3[1], "b0", 18, 20)
		addLoad(fleet3[2], "c0", tc.cNum, tc.cDen)
		cands3 := []MoveCandidate{
			{Name: "a0", Chain: 0, Rate: fleet3[0].Streams[0].Rate},
			{Name: "a1", Chain: 0, Rate: fleet3[0].Streams[1].Rate},
		}
		moves := PlanRebalance(fleet3, loadsOf(fleet3), cands3, 8, core.Load{})
		if len(moves) != tc.want {
			t.Fatalf("C at %d/%d: planned %+v, want %d move(s)", tc.cNum, tc.cDen, moves, tc.want)
		}
		if tc.want == 1 && moves[0] != (Move{Name: "a0", From: 0, To: 2}) {
			t.Fatalf("C at %d/%d: planned %+v, want a0 from 0 to 2", tc.cNum, tc.cDen, moves[0])
		}
	}
	// maxMoves caps the plan even when more improvement is available.
	fleet2 := rebalanceFleet(2)
	for i, name := range []string{"x0", "x1", "x2", "x3", "x4", "x5"} {
		_ = i
		addLoad(fleet2[0], name, 1, 10)
	}
	cands2 := make([]MoveCandidate, 6)
	for i := range cands2 {
		cands2[i] = MoveCandidate{Name: fleet2[0].Streams[i].Name, Chain: 0, Rate: fleet2[0].Streams[i].Rate}
	}
	if moves := PlanRebalance(fleet2, loadsOf(fleet2), cands2, 2, core.Load{}); len(moves) != 2 {
		t.Fatalf("planned %d moves, want the maxMoves cap of 2", len(moves))
	}
}

func TestPlanRebalanceNoOscillation(t *testing.T) {
	// Two chains one small stream apart: moving it would just invert the
	// imbalance (same spread), so the plan must be empty — the strict
	// improvement rule is what makes the cluster-level hysteresis sound.
	fleet := rebalanceFleet(2)
	addLoad(fleet[0], "a0", 1, 10)
	cands := []MoveCandidate{{Name: "a0", Chain: 0, Rate: fleet[0].Streams[0].Rate}}
	if moves := PlanRebalance(fleet, loadsOf(fleet), cands, 8, core.Load{}); len(moves) != 0 {
		t.Fatalf("planned %d moves that cannot strictly improve the spread", len(moves))
	}
}
