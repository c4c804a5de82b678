package solve

import (
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"accelshare/internal/core"
	"accelshare/internal/ilp"
)

// testSystem builds an n-stream chain whose exact utilisation stays below
// 1: with c0 = 4 cycles/sample and rates around (load/n) samples/cycle the
// utilisation is ≈ load·4 < 1 for load < 1/4.
func testSystem(n int, loadNum, loadDen int64) *core.System {
	sys := &core.System{
		Chain: core.Chain{
			Name:       "solve-test",
			AccelCosts: []uint64{4},
			EntryCost:  1,
			ExitCost:   2,
			NICapacity: 2,
		},
		ClockHz: 1_000_000,
	}
	for i := 0; i < n; i++ {
		// Vary rates slightly so blocks differ across streams; keep the sum
		// of μ·c0 at loadNum/loadDen · 4.
		num := loadNum * int64(1_000_000) * int64(3+i%5)
		den := loadDen * int64(n) * 4
		sys.Streams = append(sys.Streams, core.Stream{
			Name:     fmt.Sprintf("s%03d", i),
			Rate:     big.NewRat(num, den),
			Reconfig: uint64(50 + 10*(i%7)),
		})
	}
	return sys
}

func mustSolve(t *testing.T, s Solver, p *Problem) *Result {
	t.Helper()
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("%s.Solve: %v", s.Name(), err)
	}
	return res
}

// ilpOracle solves sys with the paper's literal ILP statement of
// Algorithm 1 (internal/ilp), the reference the exact path is held to.
func ilpOracle(sys *core.System, gran []int64, maxNodes int) ([]int64, error) {
	mu := make([]*big.Rat, len(sys.Streams))
	for i := range mu {
		mu[i] = sys.RatePerCycle(i)
	}
	return ilp.BlockSizes(mu, sys.Chain.C0(), sys.C1(), gran, maxNodes)
}

func mustOracle(t *testing.T, sys *core.System, gran []int64) []int64 {
	t.Helper()
	blocks, err := ilpOracle(sys, gran, 0)
	if err != nil {
		t.Fatalf("ILP oracle: %v", err)
	}
	return blocks
}

func TestExactMatchesLegacyILP(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		sys := testSystem(n, 1, 8)
		legacy := mustOracle(t, sys, nil)
		var total int64
		for _, b := range legacy {
			total += b
		}
		res := mustSolve(t, &Exact{}, &Problem{Model: sys})
		if res.Path != PathWarm {
			t.Fatalf("n=%d: path %q, want warm", n, res.Path)
		}
		if !reflect.DeepEqual(res.Blocks, legacy) || res.Total != total {
			t.Fatalf("n=%d: exact %v (Σ=%d) != ILP oracle %v (Σ=%d)",
				n, res.Blocks, res.Total, legacy, total)
		}
		if v := Verify(sys, nil, res.Blocks); !v.Feasible || !v.Tight {
			t.Fatalf("n=%d: exact result fails Verify: %+v", n, v)
		}
	}
}

func TestExactStreamCapRoutesToFixedPoint(t *testing.T) {
	sys := testSystem(6, 1, 8)
	res := mustSolve(t, &Exact{ILPStreamCap: 4}, &Problem{Model: sys})
	if res.Path != PathWarm {
		t.Fatalf("path %q, want warm above the ILP stream cap", res.Path)
	}
	if want := mustOracle(t, sys, nil); !reflect.DeepEqual(res.Blocks, want) {
		t.Fatalf("capped exact %v != ILP oracle %v", res.Blocks, want)
	}
}

func TestExactGranularityUsesWarmPath(t *testing.T) {
	sys := testSystem(4, 1, 8)
	gran := []int64{4, 1, 8, 2}
	res := mustSolve(t, &Exact{}, &Problem{Model: sys, Granularity: gran})
	if res.Path != PathWarm {
		t.Fatalf("path %q, want warm for granularity-constrained solve", res.Path)
	}
	for i, b := range res.Blocks {
		if b%gran[i] != 0 {
			t.Fatalf("block[%d]=%d not a multiple of %d", i, b, gran[i])
		}
	}
	if v := Verify(sys, gran, res.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("exact granular result fails Verify: %+v", v)
	}
}

// TestVerifyTightBoundary: a feasible plan with one block exactly one above
// its operator value F(η) is feasible but not tight. Raising one block of
// the least fixed point by one raises Σ η by one, which moves no F when
// every μs·c0 is small, so that block ends exactly F + 1.
func TestVerifyTightBoundary(t *testing.T) {
	sys := testSystem(4, 1, 64)
	res := mustSolve(t, &Exact{}, &Problem{Model: sys})
	found := false
	for i := range res.Blocks {
		blocks := append([]int64(nil), res.Blocks...)
		blocks[i]++
		f, err := sys.ApplyOperator(nil, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, res.Blocks) {
			continue // the extra sample moved F; try another stream
		}
		found = true
		if v := Verify(sys, nil, blocks); !v.Feasible || v.Tight {
			t.Fatalf("stream %d at F+1: %+v, want feasible and not tight", i, v)
		}
	}
	if !found {
		t.Fatal("no stream's block can rise by one without moving F")
	}
	if v := Verify(sys, nil, res.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("least fixed point: %+v, want feasible and tight", v)
	}
}

// TestVerifyRefusesOffGranularityBlock: a positive block that is not a
// multiple of its granularity is refused, and Detail names the stream,
// although every block lies above its operator value.
func TestVerifyRefusesOffGranularityBlock(t *testing.T) {
	sys := testSystem(4, 1, 64)
	gran := []int64{4, 1, 8, 2}
	res := mustSolve(t, &Exact{}, &Problem{Model: sys, Granularity: gran})
	blocks := append([]int64(nil), res.Blocks...)
	blocks[2] += 4 // 8 ∤ blocks[2]
	f, err := sys.ApplyOperator(gran, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if blocks[i] < f[i] {
			t.Fatalf("stream %d: block %d below F = %d; the plan must fail on granularity alone", i, blocks[i], f[i])
		}
	}
	v := Verify(sys, gran, blocks)
	if v.Feasible || !strings.Contains(v.Detail, sys.Streams[2].Name) {
		t.Fatalf("off-granularity plan: %+v, want refused naming %q", v, sys.Streams[2].Name)
	}
}

func TestIncrementalWarmStart(t *testing.T) {
	sys := testSystem(8, 1, 6)
	w := &Incremental{Inner: &Exact{}}

	cold := mustSolve(t, w, &Problem{Model: sys})
	prev := make([]Assignment, len(sys.Streams))
	for i := range sys.Streams {
		prev[i] = Assignment{Name: sys.Streams[i].Name, Block: cold.Blocks[i]}
	}

	// Addition: same streams plus a newcomer; warm start must agree with a
	// cold solve of the grown model and converge in fewer rounds.
	grown := sys.Clone()
	grown.Streams = append(grown.Streams, core.Stream{
		Name: "newcomer", Rate: big.NewRat(1_000_000, 8*6*4), Reconfig: 60,
	})
	warm := mustSolve(t, w, &Problem{Model: grown, Prev: prev})
	coldGrown := mustSolve(t, w, &Problem{Model: grown})
	if !reflect.DeepEqual(warm.Blocks, coldGrown.Blocks) {
		t.Fatalf("warm %v != cold %v on the grown model", warm.Blocks, coldGrown.Blocks)
	}
	if warm.Rounds > coldGrown.Rounds {
		t.Fatalf("warm start took %d rounds, cold took %d", warm.Rounds, coldGrown.Rounds)
	}

	// Removal: a Prev longer than the model must trigger a cold restart —
	// the result must be the shrunken model's true least fixed point, not
	// a stale reuse of the larger one.
	shrunk := sys.Clone()
	shrunk.Streams = shrunk.Streams[:len(shrunk.Streams)-1]
	after := mustSolve(t, w, &Problem{Model: shrunk, Prev: prev})
	coldShrunk := mustSolve(t, w, &Problem{Model: shrunk})
	if !reflect.DeepEqual(after.Blocks, coldShrunk.Blocks) {
		t.Fatalf("post-removal %v != cold %v", after.Blocks, coldShrunk.Blocks)
	}

	// A Prev that does not name the model's leading streams in order is
	// not read at all: the solve is the cold one, round for round.
	swapped := append([]Assignment(nil), prev...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	reordered := mustSolve(t, w, &Problem{Model: grown, Prev: swapped})
	if !reflect.DeepEqual(reordered.Blocks, coldGrown.Blocks) || reordered.Rounds != coldGrown.Rounds {
		t.Fatalf("out-of-order Prev: %v in %d rounds, cold %v in %d rounds",
			reordered.Blocks, reordered.Rounds, coldGrown.Blocks, coldGrown.Rounds)
	}
}

// TestDefaultIsExact: the production stack answers on the exact path at
// every size, including the 32 streams that used to be routed to a float
// solver. The ILP oracle checks the small instance only; at 32 streams it
// takes seconds, so there Verify holds the plan to feasible and tight.
func TestDefaultIsExact(t *testing.T) {
	s := Default(0, 0)
	small := testSystem(4, 1, 8)
	res := mustSolve(t, s, &Problem{Model: small})
	if res.Path != PathWarm {
		t.Fatalf("small instance path %q, want warm", res.Path)
	}
	if want := mustOracle(t, small, nil); !reflect.DeepEqual(res.Blocks, want) {
		t.Fatalf("small instance %v != ILP oracle %v", res.Blocks, want)
	}
	large := testSystem(32, 1, 6)
	res = mustSolve(t, s, &Problem{Model: large})
	if res.Path != PathWarm {
		t.Fatalf("large instance path %q, want warm", res.Path)
	}
	if v := Verify(large, nil, res.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("large instance plan fails Verify: %+v", v)
	}
}

func TestVerifyRejects(t *testing.T) {
	sys := testSystem(3, 1, 8)
	good := mustSolve(t, &Exact{}, &Problem{Model: sys})
	if v := Verify(sys, nil, good.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("optimal plan fails Verify: %+v", v)
	}

	cases := []struct {
		name   string
		blocks []int64
	}{
		{"short", good.Blocks[:2]},
		{"zero", []int64{0, good.Blocks[1], good.Blocks[2]}},
		{"violating", []int64{1, 1, 1}},
	}
	for _, c := range cases {
		if v := Verify(sys, nil, c.blocks); v.Feasible {
			t.Fatalf("%s: Verify accepted %v", c.name, c.blocks)
		} else if v.Detail == "" {
			t.Fatalf("%s: no detail on rejection", c.name)
		}
	}

	// Feasible but slack: padding every block keeps Eq. 6 but loses
	// tightness.
	slack := make([]int64, len(good.Blocks))
	for i, b := range good.Blocks {
		slack[i] = b + 100
	}
	if v := Verify(sys, nil, slack); !v.Feasible || v.Tight {
		t.Fatalf("padded plan: %+v, want feasible non-tight", v)
	}

	// Granularity violation.
	if v := Verify(sys, []int64{7, 1, 1}, good.Blocks); v.Feasible && good.Blocks[0]%7 != 0 {
		t.Fatalf("Verify accepted non-multiple block under granularity")
	}
}

func TestSolverDoesNotMutateModel(t *testing.T) {
	sys := testSystem(5, 1, 8)
	before := sys.Clone()
	for _, s := range []Solver{&Exact{}, Default(0, 0)} {
		if _, err := s.Solve(&Problem{Model: sys}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(sys, before) {
			t.Fatalf("%s mutated the model", s.Name())
		}
	}
}
