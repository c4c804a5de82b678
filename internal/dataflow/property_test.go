package dataflow

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRepetitionScaleInvariance: multiplying both rates of an edge by the
// same factor leaves the repetition vector unchanged.
func TestRepetitionScaleInvariance(t *testing.T) {
	f := func(pRaw, cRaw, kRaw uint8) bool {
		p := int64(pRaw%7) + 1
		c := int64(cRaw%7) + 1
		k := int64(kRaw%5) + 1
		g1 := NewGraph("a")
		a1 := g1.AddActor("a", 1)
		b1 := g1.AddActor("b", 1)
		g1.AddEdge("e", a1, b1, Const(p), Const(c), 0)
		g2 := NewGraph("b")
		a2 := g2.AddActor("a", 1)
		b2 := g2.AddActor("b", 1)
		g2.AddEdge("e", a2, b2, Const(k*p), Const(k*c), 0)
		r1, err1 := g1.Repetitions()
		r2, err2 := g2.Repetitions()
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Firings[a1] == r2.Firings[a2] && r1.Firings[b1] == r2.Firings[b2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBufferTokenConservation: on every AddBuffer pair, fwd + back tokens
// never exceed the capacity and their sum is exactly capacity whenever no
// firing is in flight (claim-at-start/release-at-end semantics only dip the
// sum transiently).
func TestBufferTokenConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		p := int64(1 + rng.Intn(4))
		c := int64(1 + rng.Intn(4))
		capacity := p + c + int64(rng.Intn(5))
		g := NewGraph("cons")
		a := g.AddActor("a", uint64(1+rng.Intn(3)))
		b := g.AddActor("b", uint64(1+rng.Intn(3)))
		fwd, back := g.AddBuffer("ab", a, b, Const(p), Const(c), capacity)
		res, err := g.Simulate(SimOptions{StopAfterFirings: map[ActorID]int64{b: 200}})
		if err != nil {
			t.Fatal(err)
		}
		// The peak combined occupancy never exceeds capacity...
		if res.MaxTokens[fwd]+res.MinTokens[back] > capacity {
			// MaxTokens[fwd] is observed at some instant; MinTokens[back] at
			// possibly another, so this is a conservative check:
			// max(fwd) <= capacity - min_inflight <= capacity.
			if res.MaxTokens[fwd] > capacity {
				t.Fatalf("trial %d: fwd tokens %d exceed capacity %d", trial, res.MaxTokens[fwd], capacity)
			}
		}
		// ...and the back edge never goes negative (guaranteed by firing
		// rules, asserted for robustness).
		if res.MinTokens[back] < 0 || res.MinTokens[fwd] < 0 {
			t.Fatalf("trial %d: negative tokens", trial)
		}
	}
}

// TestThroughputInvariantUnderTimeScaling: multiplying all durations by k
// divides all throughputs by exactly k.
func TestThroughputInvariantUnderTimeScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 20; trial++ {
		d1 := uint64(1 + rng.Intn(4))
		d2 := uint64(1 + rng.Intn(4))
		p := int64(1 + rng.Intn(3))
		c := int64(1 + rng.Intn(3))
		capacity := p + c + int64(rng.Intn(4))
		k := uint64(2 + rng.Intn(3))
		build := func(scale uint64) *Graph {
			g := NewGraph("scale")
			a := g.AddActor("a", d1*scale)
			b := g.AddActor("b", d2*scale)
			g.AddBuffer("ab", a, b, Const(p), Const(c), capacity)
			return g
		}
		r1, err := build(1).Simulate(SimOptions{DetectPeriod: true})
		if err != nil {
			t.Fatal(err)
		}
		rk, err := build(k).Simulate(SimOptions{DetectPeriod: true})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Deadlocked != rk.Deadlocked {
			t.Fatalf("trial %d: deadlock behaviour changed under scaling", trial)
		}
		if r1.Deadlocked {
			continue
		}
		th1 := r1.Throughput(ActorID(1))
		thk := rk.Throughput(ActorID(1))
		scaled := new(big.Rat).Mul(thk, big.NewRat(int64(k), 1))
		if th1.Cmp(scaled) != 0 {
			t.Fatalf("trial %d: throughput %v != k·scaled %v", trial, th1, scaled)
		}
	}
}

// TestDeterminism: two runs of the same graph produce identical traces.
func TestDeterminism(t *testing.T) {
	build := func() *Graph {
		g := NewGraph("det")
		a := g.AddActor("a", 2)
		b := g.AddActor("b", 3)
		c := g.AddActor("c", 1)
		g.AddBuffer("ab", a, b, Const(2), Const(3), 7)
		g.AddBuffer("bc", b, c, Const(1), Const(2), 5)
		return g
	}
	stop := map[ActorID]int64{2: 300} // c, the third actor
	r1, err := build().Simulate(SimOptions{RecordTrace: true, StopAfterFirings: stop})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := build().Simulate(SimOptions{RecordTrace: true, StopAfterFirings: stop})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	for i := range r1.Trace {
		if r1.Trace[i] != r2.Trace[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, r1.Trace[i], r2.Trace[i])
		}
	}
}
