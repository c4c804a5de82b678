package buffer

import (
	"math/big"
	"testing"
	"testing/quick"

	"accelshare/internal/dataflow"
)

func TestClassicalMinCapacity(t *testing.T) {
	cases := []struct{ p, c, want int64 }{
		{1, 1, 1},
		{2, 3, 4},
		{5, 1, 5},
		{5, 2, 6},
		{5, 3, 7},
		{5, 4, 8},
		{5, 5, 5},
		{5, 6, 10},
		{4, 6, 8},
		{8, 8, 8},
	}
	for _, c := range cases {
		if got := ClassicalMinCapacity(c.p, c.c); got != c.want {
			t.Errorf("ClassicalMinCapacity(%d,%d) = %d, want %d", c.p, c.c, got, c.want)
		}
	}
}

func TestClassicalMinCapacityProperties(t *testing.T) {
	// p+c-gcd is symmetric, >= max(p,c), <= p+c-1, and equals p when p == c.
	f := func(a, b uint8) bool {
		p, c := int64(a%20)+1, int64(b%20)+1
		v := ClassicalMinCapacity(p, c)
		if v != ClassicalMinCapacity(c, p) {
			return false
		}
		if v < p || v < c || v > p+c-1 {
			return false
		}
		if p == c && v != p {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fig8Model is the paper's Fig. 8a: producer vA emits 5 tokens per firing,
// consumer vB takes ηs per firing, connected by one bounded channel. The
// consumer is modelled as instantaneous so the channel structure — not
// pipelining slack — determines the minimum capacity, matching the paper's
// table in Fig. 8b.
func fig8Model(eta int64) (*dataflow.Graph, Channel, dataflow.ActorID) {
	g := dataflow.NewGraph("fig8")
	a := g.AddActor("vA", 5)
	b := g.AddActor("vB", 0)
	fwd, back := g.AddBuffer("ab", a, b, dataflow.Const(5), dataflow.Const(eta), 1)
	return g, Channel{Fwd: fwd, Back: back}, a
}

func TestFig8NonMonotoneBufferCapacities(t *testing.T) {
	want := map[int64]int64{1: 5, 2: 6, 3: 7, 4: 8, 5: 5}
	for eta, exp := range want {
		g, ch, mon := fig8Model(eta)
		s := &Sizer{G: g, Channels: []Channel{ch}, Monitor: mon}
		maxTh, err := s.MaxThroughput()
		if err != nil {
			t.Fatalf("eta=%d: %v", eta, err)
		}
		caps, err := s.MinCapacitiesForThroughput(maxTh)
		if err != nil {
			t.Fatalf("eta=%d: %v", eta, err)
		}
		if caps[0] != exp {
			t.Errorf("eta=%d: min capacity = %d, want %d (paper Fig. 8b)", eta, caps[0], exp)
		}
		if caps[0] != ClassicalMinCapacity(5, eta) {
			t.Errorf("eta=%d: search %d != classical %d", eta, caps[0], ClassicalMinCapacity(5, eta))
		}
	}
}

func TestFig8NonMonotonicityStatement(t *testing.T) {
	// The paper's two claims: α(2) > α(5) (smaller block needs MORE buffer)
	// while α(1) < α(2).
	alpha := func(eta int64) int64 {
		g, ch, mon := fig8Model(eta)
		s := &Sizer{G: g, Channels: []Channel{ch}, Monitor: mon}
		maxTh, err := s.MaxThroughput()
		if err != nil {
			t.Fatal(err)
		}
		caps, err := s.MinCapacitiesForThroughput(maxTh)
		if err != nil {
			t.Fatal(err)
		}
		return caps[0]
	}
	a1, a2, a5 := alpha(1), alpha(2), alpha(5)
	if !(a2 > a5) {
		t.Errorf("expected alpha(2)=%d > alpha(5)=%d", a2, a5)
	}
	if !(a1 < a2) {
		t.Errorf("expected alpha(1)=%d < alpha(2)=%d", a1, a2)
	}
}

func TestMaxThroughputSimplePipeline(t *testing.T) {
	g := dataflow.NewGraph("p")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	fwd, back := g.AddBuffer("ab", a, b, dataflow.Const(1), dataflow.Const(1), 1)
	s := &Sizer{G: g, Channels: []Channel{{fwd, back}}, Monitor: b}
	th, err := s.MaxThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if th.Cmp(big.NewRat(1, 3)) != 0 {
		t.Errorf("max throughput = %v, want 1/3", th)
	}
}

func TestMinCapacitiesForReducedThroughput(t *testing.T) {
	// Requiring less than max throughput must never need more buffer.
	g := dataflow.NewGraph("p")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 2)
	fwd, back := g.AddBuffer("ab", a, b, dataflow.Const(1), dataflow.Const(1), 1)
	s := &Sizer{G: g, Channels: []Channel{{fwd, back}}, Monitor: b}
	maxTh, err := s.MaxThroughput()
	if err != nil {
		t.Fatal(err)
	}
	capsMax, err := s.MinCapacitiesForThroughput(maxTh)
	if err != nil {
		t.Fatal(err)
	}
	half := new(big.Rat).Mul(maxTh, big.NewRat(1, 2))
	capsHalf, err := s.MinCapacitiesForThroughput(half)
	if err != nil {
		t.Fatal(err)
	}
	if capsHalf[0] > capsMax[0] {
		t.Errorf("half-rate caps %v exceed full-rate caps %v", capsHalf, capsMax)
	}
}

func TestInfeasibleTarget(t *testing.T) {
	g := dataflow.NewGraph("p")
	a := g.AddActor("a", 4)
	b := g.AddActor("b", 4)
	fwd, back := g.AddBuffer("ab", a, b, dataflow.Const(1), dataflow.Const(1), 1)
	s := &Sizer{G: g, Channels: []Channel{{fwd, back}}, Monitor: b}
	// 1 token per cycle is impossible with duration-4 actors.
	if _, err := s.MinCapacitiesForThroughput(big.NewRat(1, 1)); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}
