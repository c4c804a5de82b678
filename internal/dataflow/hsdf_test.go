package dataflow

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestExpandHSDFRequiresSDF(t *testing.T) {
	g := NewGraph("csdf")
	a := g.AddActor("a", 1, 2)
	b := g.AddActor("b", 1)
	g.AddEdge("e", a, b, Quanta{1, 1}, Const(1), 0)
	if _, err := g.ExpandHSDF(); err == nil {
		t.Fatal("want error for CSDF input")
	}
}

func TestExpandHSDFCopies(t *testing.T) {
	g := NewGraph("x")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 2)
	g.AddBuffer("ab", a, b, Const(2), Const(3), 6)
	exp, err := g.ExpandHSDF()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Copy[a]) != 3 || len(exp.Copy[b]) != 2 {
		t.Fatalf("copies = %d/%d, want 3/2", len(exp.Copy[a]), len(exp.Copy[b]))
	}
	if len(exp.Origin) != 5 {
		t.Fatalf("origin len = %d", len(exp.Origin))
	}
	if exp.Origin[exp.Copy[b][1]] != b {
		t.Error("origin mapping broken")
	}
}

// hsdfEquivalentThroughput checks that self-timed simulation of the original
// SDF graph and MCR analysis of its HSDF expansion agree exactly.
func hsdfEquivalentThroughput(t *testing.T, g *Graph, a ActorID) {
	t.Helper()
	res, err := g.Simulate(SimOptions{DetectPeriod: true, MaxEvents: 5_000_000})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	exp, err := g.ExpandHSDF()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if res.Deadlocked {
		_, err := exp.Graph.MaxCycleRatio()
		if err != ErrZeroTokenCycle {
			t.Fatalf("sim deadlocked but MCR err = %v", err)
		}
		return
	}
	simTh := res.Throughput(a)
	mcrTh, err := exp.ThroughputViaMCR(a)
	if err != nil {
		t.Fatalf("mcr: %v", err)
	}
	if simTh.Cmp(mcrTh) != 0 {
		t.Fatalf("actor %s: simulation %v vs MCR %v\n%s", g.Actors[a].Name, simTh, mcrTh, g.DOT())
	}
}

func TestHSDFMatchesSimulationSimple(t *testing.T) {
	g := NewGraph("s1")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.AddBuffer("ab", a, b, Const(1), Const(1), 2)
	hsdfEquivalentThroughput(t, g, b)
}

func TestHSDFMatchesSimulationMultirate(t *testing.T) {
	g := NewGraph("s2")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.AddBuffer("ab", a, b, Const(2), Const(3), 7)
	hsdfEquivalentThroughput(t, g, a)
	hsdfEquivalentThroughput(t, g, b)
}

func TestHSDFMatchesSimulationThreeStage(t *testing.T) {
	g := NewGraph("s3")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 4)
	c := g.AddActor("c", 2)
	g.AddBuffer("ab", a, b, Const(3), Const(2), 6)
	g.AddBuffer("bc", b, c, Const(1), Const(3), 9)
	hsdfEquivalentThroughput(t, g, c)
}

func TestHSDFDeadlockAgreement(t *testing.T) {
	// Buffer too small for the rates: p + c - gcd = 5+3-1 = 7 needed.
	g := NewGraph("dl")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddBuffer("ab", a, b, Const(5), Const(3), 6)
	hsdfEquivalentThroughput(t, g, a)
}

// TestHSDFMatchesSimulationRandom is a property test: on random bounded
// two/three-actor SDF graphs, simulation and HSDF/MCR agree exactly.
func TestHSDFMatchesSimulationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		g := NewGraph("rand")
		n := 2 + rng.Intn(2)
		ids := make([]ActorID, n)
		for i := 0; i < n; i++ {
			ids[i] = g.AddActor(string(rune('a'+i)), uint64(1+rng.Intn(5)))
		}
		for i := 0; i+1 < n; i++ {
			p := int64(1 + rng.Intn(4))
			c := int64(1 + rng.Intn(4))
			cap := p + c + int64(rng.Intn(6)) - 2 // sometimes below the safe bound
			if cap < 1 {
				cap = 1
			}
			g.AddBuffer("e", ids[i], ids[i+1], Const(p), Const(c), cap)
		}
		a := ids[rng.Intn(n)]
		t.Run("", func(t *testing.T) { hsdfEquivalentThroughput(t, g, a) })
	}
}

func TestMaxCycleRatioAcyclic(t *testing.T) {
	g := NewGraph("dag")
	a := g.AddActor("a", 5)
	b := g.AddActor("b", 3)
	g.AddEdge("ab", a, b, Const(1), Const(1), 0)
	r, err := g.MaxCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sign() != 0 {
		t.Errorf("acyclic MCR = %v, want 0", r)
	}
}

func TestMaxCycleRatioSimpleRing(t *testing.T) {
	// a(2) -> b(3) -> a with 1 token total: ratio (2+3)/1 = 5.
	g := NewGraph("ring")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.AddEdge("ab", a, b, Const(1), Const(1), 1)
	g.AddEdge("ba", b, a, Const(1), Const(1), 0)
	r, err := g.MaxCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !ratEq(r, 5, 1) {
		t.Errorf("MCR = %v, want 5", r)
	}
}

func TestMaxCycleRatioPicksWorstCycle(t *testing.T) {
	// Two rings sharing no nodes: ratios 5/1 and 7/2; max is 5.
	g := NewGraph("two")
	a := g.AddActor("a", 5)
	b := g.AddActor("b", 3)
	c := g.AddActor("c", 4)
	g.AddEdge("aa", a, a, Const(1), Const(1), 1) // ratio 5
	g.AddEdge("bc", b, c, Const(1), Const(1), 1)
	g.AddEdge("cb", c, b, Const(1), Const(1), 1) // ratio (3+4)/2 = 3.5
	r, err := g.MaxCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !ratEq(r, 5, 1) {
		t.Errorf("MCR = %v, want 5", r)
	}
}

func TestMaxCycleRatioFractional(t *testing.T) {
	// Single ring, 2 tokens: ratio (3+4)/2 = 7/2 — exact rational expected.
	g := NewGraph("frac")
	b := g.AddActor("b", 3)
	c := g.AddActor("c", 4)
	g.AddEdge("bc", b, c, Const(1), Const(1), 2)
	g.AddEdge("cb", c, b, Const(1), Const(1), 0)
	r, err := g.MaxCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !ratEq(r, 7, 2) {
		t.Errorf("MCR = %v, want 7/2", r)
	}
}

func TestMaxCycleRatioZeroTokenCycle(t *testing.T) {
	g := NewGraph("zero")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, Const(1), Const(1), 0)
	g.AddEdge("ba", b, a, Const(1), Const(1), 0)
	if _, err := g.MaxCycleRatio(); err != ErrZeroTokenCycle {
		t.Fatalf("err = %v, want ErrZeroTokenCycle", err)
	}
}

func TestMaxCycleRatioZeroWeightCycle(t *testing.T) {
	// A cycle of zero-duration actors with tokens: ratio 0.
	g := NewGraph("zw")
	a := g.AddActor("a", 0)
	b := g.AddActor("b", 0)
	g.AddEdge("ab", a, b, Const(1), Const(1), 1)
	g.AddEdge("ba", b, a, Const(1), Const(1), 1)
	r, err := g.MaxCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sign() != 0 {
		t.Errorf("MCR = %v, want 0", r)
	}
}

func TestMaxCycleRatioLargeDenominator(t *testing.T) {
	// Ring with 7 tokens and weight 13+17+1: ratio 31/7.
	g := NewGraph("ld")
	a := g.AddActor("a", 13)
	b := g.AddActor("b", 17)
	c := g.AddActor("c", 1)
	g.AddEdge("ab", a, b, Const(1), Const(1), 3)
	g.AddEdge("bc", b, c, Const(1), Const(1), 2)
	g.AddEdge("ca", c, a, Const(1), Const(1), 2)
	r, err := g.MaxCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cmp(big.NewRat(31, 7)) != 0 {
		t.Errorf("MCR = %v, want 31/7", r)
	}
}
