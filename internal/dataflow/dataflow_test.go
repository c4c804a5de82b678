package dataflow

import (
	"math/big"
	"strings"
	"testing"
)

func TestQuantaHelpers(t *testing.T) {
	q := Repeat(3, 4)
	if len(q) != 4 {
		t.Fatalf("Repeat length = %d, want 4", len(q))
	}
	if q.Sum() != 12 {
		t.Errorf("Sum = %d, want 12", q.Sum())
	}
	if q.At(5) != 3 {
		t.Errorf("At(5) = %d, want 3 (cyclic)", q.At(5))
	}
	c := Const(7)
	if len(c) != 1 || c[0] != 7 {
		t.Errorf("Const(7) = %v", c)
	}
	if got := (Quanta{1, 0, 2}).String(); got != "[1,0,2]" {
		t.Errorf("String = %q", got)
	}
	if got := Const(5).String(); got != "5" {
		t.Errorf("Const String = %q", got)
	}
}

func TestAddActorDefaults(t *testing.T) {
	g := NewGraph("t")
	a := g.AddActor("a")
	if g.Actors[a].Phases() != 1 {
		t.Errorf("default phases = %d, want 1", g.Actors[a].Phases())
	}
	b := g.AddActor("b", 1, 2, 3)
	if g.Actors[b].Phases() != 3 {
		t.Errorf("phases = %d, want 3", g.Actors[b].Phases())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if err := NewGraph("e").Validate(); err == nil {
			t.Fatal("want error for empty graph")
		}
	})
	t.Run("dangling", func(t *testing.T) {
		g := NewGraph("d")
		g.AddActor("a")
		g.Edges = append(g.Edges, Edge{Name: "bad", Src: 0, Dst: 5, Prod: Const(1), Cons: Const(1)})
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown actor") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("negative-init", func(t *testing.T) {
		g := NewGraph("n")
		a := g.AddActor("a")
		g.AddSDFEdge("e", a, a, 1, 1, -1)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for negative initial tokens")
		}
	})
	t.Run("negative-rate", func(t *testing.T) {
		g := NewGraph("n")
		a := g.AddActor("a")
		g.AddEdge("e", a, a, Quanta{-1}, Const(1), 0)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for negative rate")
		}
	})
	t.Run("phase-mismatch", func(t *testing.T) {
		g := NewGraph("p")
		a := g.AddActor("a", 1, 1) // 2 phases
		b := g.AddActor("b")
		g.AddEdge("e", a, b, Quanta{1, 2, 3}, Const(1), 0)
		if err := g.Validate(); err == nil {
			t.Fatal("want error for quanta/phase mismatch")
		}
	})
	t.Run("broadcast-ok", func(t *testing.T) {
		g := NewGraph("b")
		a := g.AddActor("a", 1, 1)
		b := g.AddActor("b")
		g.AddEdge("e", a, b, Const(1), Const(2), 0) // length-1 broadcast to 2 phases
		if err := g.Validate(); err != nil {
			t.Fatalf("broadcast quanta rejected: %v", err)
		}
	})
}

func TestLookupsAndClone(t *testing.T) {
	g := NewGraph("l")
	a := g.AddActor("alpha", 2)
	b := g.AddActor("beta", 3)
	e := g.AddSDFEdge("link", a, b, 2, 3, 1)
	if id, ok := g.ActorByName("beta"); !ok || id != b {
		t.Errorf("ActorByName(beta) = %v %v", id, ok)
	}
	if _, ok := g.ActorByName("nope"); ok {
		t.Error("ActorByName(nope) should fail")
	}
	if id, ok := g.EdgeByName("link"); !ok || id != e {
		t.Errorf("EdgeByName = %v %v", id, ok)
	}
	if _, ok := g.EdgeByName("nope"); ok {
		t.Error("EdgeByName(nope) should fail")
	}
	c := g.Clone()
	c.Actors[0].Name = "mutated"
	c.Edges[0].Initial = 99
	c.Actors[0].Duration[0] = 42
	if g.Actors[0].Name != "alpha" || g.Edges[0].Initial != 1 || g.Actors[0].Duration[0] != 2 {
		t.Error("Clone is not deep")
	}
	if len(g.OutEdges(a)) != 1 || len(g.InEdges(b)) != 1 {
		t.Error("adjacency wrong")
	}
	if !strings.Contains(g.String(), "alpha") {
		t.Error("String missing actor name")
	}
}

func TestIsSDF(t *testing.T) {
	g := NewGraph("s")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 2)
	g.AddSDFEdge("e", a, b, 1, 1, 0)
	if !g.IsSDF() {
		t.Error("plain graph should be SDF")
	}
	g2 := NewGraph("c")
	x := g2.AddActor("x", 1, 2)
	y := g2.AddActor("y", 1)
	g2.AddEdge("e", x, y, Quanta{1, 0}, Const(1), 0)
	if g2.IsSDF() {
		t.Error("multi-phase graph should not be SDF")
	}
}

func TestRepetitionsSDFChain(t *testing.T) {
	// a --2/3--> b : q = (3, 2)
	g := NewGraph("chain")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddSDFEdge("e", a, b, 2, 3, 0)
	rv, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if rv.Firings[a] != 3 || rv.Firings[b] != 2 {
		t.Errorf("firings = %v, want [3 2]", rv.Firings)
	}
}

func TestRepetitionsCSDF(t *testing.T) {
	// CSDF actor a with phases producing [1,2] (total 3) feeding SDF b
	// consuming 2: 2*cycles(a)*3 == ... balance: 3*qa = 2*qb -> qa=2, qb=3.
	g := NewGraph("csdf")
	a := g.AddActor("a", 1, 1)
	b := g.AddActor("b", 1)
	g.AddEdge("e", a, b, Quanta{1, 2}, Const(2), 0)
	rv, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if rv.Cycles[a] != 2 || rv.Cycles[b] != 3 {
		t.Errorf("cycles = %v, want [2 3]", rv.Cycles)
	}
	if rv.Firings[a] != 4 { // 2 cycles x 2 phases
		t.Errorf("firings[a] = %d, want 4", rv.Firings[a])
	}
}

func TestRepetitionsInconsistent(t *testing.T) {
	// Triangle with incompatible rates.
	g := NewGraph("bad")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c := g.AddActor("c", 1)
	g.AddSDFEdge("ab", a, b, 1, 1, 0)
	g.AddSDFEdge("bc", b, c, 1, 1, 0)
	g.AddSDFEdge("ca", c, a, 2, 1, 0)
	if _, err := g.Repetitions(); err == nil {
		t.Fatal("want inconsistency error")
	}
}

func TestRepetitionsMultiComponent(t *testing.T) {
	g := NewGraph("mc")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddSDFEdge("aa", a, a, 1, 1, 1)
	g.AddSDFEdge("bb", b, b, 1, 1, 1)
	rv, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if rv.Firings[a] != 1 || rv.Firings[b] != 1 {
		t.Errorf("firings = %v", rv.Firings)
	}
}

func TestRepetitionsBroadcastQuanta(t *testing.T) {
	// 2-phase actor with broadcast rate 1 -> total 2 per cycle.
	g := NewGraph("bq")
	a := g.AddActor("a", 1, 1)
	b := g.AddActor("b", 1)
	g.AddEdge("e", a, b, Const(1), Const(1), 0)
	rv, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	// per cycle a moves 2 tokens, b consumes 1: qa=1, qb=2.
	if rv.Cycles[a] != 1 || rv.Cycles[b] != 2 {
		t.Errorf("cycles = %v, want [1 2]", rv.Cycles)
	}
}

func ratEq(r *big.Rat, num, den int64) bool {
	return r != nil && r.Cmp(big.NewRat(num, den)) == 0
}

func TestSimulateTwoActorPipeline(t *testing.T) {
	// a(dur 2) -> b(dur 3), buffer capacity 2. Steady state limited by b:
	// one token every 3 cycles.
	g := NewGraph("pipe")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.AddBuffer("ab", a, b, Const(1), Const(1), 2)
	res, err := g.Simulate(SimOptions{DetectPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if !res.Periodic {
		t.Fatal("expected periodic steady state")
	}
	if th := res.Throughput(b); !ratEq(th, 1, 3) {
		t.Errorf("throughput(b) = %v, want 1/3", th)
	}
	if th := res.Throughput(a); !ratEq(th, 1, 3) {
		t.Errorf("throughput(a) = %v, want 1/3 (back-pressure)", th)
	}
}

func TestSimulateDeadlock(t *testing.T) {
	// Two actors in a token-free cycle never fire.
	g := NewGraph("dead")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddSDFEdge("ab", a, b, 1, 1, 0)
	g.AddSDFEdge("ba", b, a, 1, 1, 0)
	res, err := g.Simulate(SimOptions{DetectPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if th := res.Throughput(a); th.Sign() != 0 {
		t.Errorf("deadlock throughput = %v, want 0", th)
	}
}

func TestSimulatePartialDeadlock(t *testing.T) {
	// One actor runs forever, another deadlocks: not a global deadlock, and
	// the running actor's rate is 1/its duration.
	g := NewGraph("partial")
	a := g.AddActor("a", 4)
	b := g.AddActor("b", 1)
	c := g.AddActor("c", 1)
	g.AddSDFEdge("aa", a, a, 1, 1, 1)
	g.AddSDFEdge("bc", b, c, 1, 1, 0)
	g.AddSDFEdge("cb", c, b, 1, 1, 0)
	res, err := g.Simulate(SimOptions{DetectPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("graph still has a live actor")
	}
	if th := res.Throughput(a); !ratEq(th, 1, 4) {
		t.Errorf("throughput(a) = %v, want 1/4", th)
	}
	if res.PeriodFirings[b] != 0 {
		t.Errorf("b fired %d times in period, want 0", res.PeriodFirings[b])
	}
}

func TestSimulateNoAutoConcurrency(t *testing.T) {
	// Actor with duration 5 whose input loop carries 3 tokens: without the
	// implicit self-edge it could fire 3 firings concurrently (rate 3/5);
	// with it the rate must be exactly 1/5.
	g := NewGraph("selfedge")
	slow := g.AddActor("slow", 5)
	g.AddSDFEdge("loop", slow, slow, 1, 1, 3)
	res, err := g.Simulate(SimOptions{DetectPeriod: true, MaxEvents: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if th := res.Throughput(slow); !ratEq(th, 1, 5) {
		t.Errorf("throughput(slow) = %v, want 1/5", th)
	}
}

func TestSimulateCSDFPhases(t *testing.T) {
	// CSDF actor with durations [1, 3] and per-phase production [2, 0]:
	// every 4 cycles it completes a cycle producing 2 tokens.
	g := NewGraph("phases")
	a := g.AddActor("a", 1, 3)
	b := g.AddActor("b", 1)
	g.AddBuffer("ab", a, b, Quanta{2, 0}, Const(1), 4)
	res, err := g.Simulate(SimOptions{DetectPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if th := res.Throughput(b); !ratEq(th, 2, 4) {
		t.Errorf("throughput(b) = %v, want 1/2", th)
	}
	// a completes 2 firings (both phases) per 4 cycles.
	if th := res.Throughput(a); !ratEq(th, 2, 4) {
		t.Errorf("throughput(a) = %v, want 2/4", th)
	}
}

func TestSimulateTraceAndWatch(t *testing.T) {
	g := NewGraph("trace")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 1)
	e := g.AddSDFEdge("ab", a, b, 1, 1, 0)
	g.AddSDFEdge("ba", b, a, 1, 1, 3)
	res, err := g.Simulate(SimOptions{
		RecordTrace:      true,
		WatchEdges:       []EdgeID{e},
		StopAfterFirings: map[ActorID]int64{b: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	if res.Trace[0].Actor != a || res.Trace[0].Start != 0 || res.Trace[0].End != 2 {
		t.Errorf("first firing = %+v", res.Trace[0])
	}
	if len(res.TokenEvents) < 4 {
		t.Fatalf("token events = %d, want >= 4", len(res.TokenEvents))
	}
	if res.TokenEvents[0].Time != 2 || res.TokenEvents[0].Count != 1 {
		t.Errorf("first token event = %+v", res.TokenEvents[0])
	}
	// a produces every 2 cycles back-to-back: events at 2, 4, 6, ...
	for i, ev := range res.TokenEvents[:4] {
		if want := uint64(2 * (i + 1)); ev.Time != want {
			t.Errorf("event %d at %d, want %d", i, ev.Time, want)
		}
	}
}

func TestSimulateMaxTokens(t *testing.T) {
	// Unbounded edge: source twice as fast as sink; run a fixed horizon and
	// check occupancy tracking.
	g := NewGraph("occ")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 2)
	e := g.AddSDFEdge("ab", a, b, 1, 1, 0)
	g.AddSDFEdge("aa", a, a, 1, 1, 1)
	res, err := g.Simulate(SimOptions{MaxTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTokens[e] < 40 {
		t.Errorf("MaxTokens = %d, want ~50", res.MaxTokens[e])
	}
}

func TestSimulateZeroDurationChain(t *testing.T) {
	// Zero-duration actors forward tokens within the same instant.
	g := NewGraph("zero")
	a := g.AddActor("a", 2)
	z1 := g.AddActor("z1", 0)
	z2 := g.AddActor("z2", 0)
	d := g.AddActor("d", 2)
	g.AddSDFEdge("az", a, z1, 1, 1, 0)
	g.AddSDFEdge("zz", z1, z2, 1, 1, 0)
	g.AddSDFEdge("zd", z2, d, 1, 1, 0)
	g.AddSDFEdge("da", d, a, 1, 1, 1)
	res, err := g.Simulate(SimOptions{DetectPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if th := res.Throughput(d); !ratEq(th, 1, 4) {
		t.Errorf("throughput(d) = %v, want 1/4", th)
	}
}

func TestSimulateZeroCycleGuard(t *testing.T) {
	// Zero-duration self-sustaining loop with token gain: must be caught.
	g := NewGraph("gain")
	a := g.AddActor("a", 0)
	g.AddSDFEdge("aa", a, a, 2, 1, 1)
	_, err := g.Simulate(SimOptions{})
	if err == nil {
		t.Fatal("want ErrZeroCycle")
	}
}

func TestSimulateMaxTimeStops(t *testing.T) {
	g := NewGraph("mt")
	a := g.AddActor("a", 10)
	g.AddSDFEdge("aa", a, a, 1, 1, 1)
	res, err := g.Simulate(SimOptions{MaxTime: 55})
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings[a] != 6 { // fires at 0,10,20,30,40,50
		t.Errorf("firings = %d, want 6", res.Firings[a])
	}
}

func TestThroughputOfHelper(t *testing.T) {
	g := NewGraph("th")
	a := g.AddActor("a", 7)
	g.AddSDFEdge("aa", a, a, 1, 1, 1)
	th, err := g.ThroughputOf(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ratEq(th, 1, 7) {
		t.Errorf("throughput = %v, want 1/7", th)
	}
}

func TestDOTExport(t *testing.T) {
	g := NewGraph("dot")
	a := g.AddActor("alpha", 2)
	b := g.AddActor("beta", 3)
	g.AddSDFEdge("ab", a, b, 2, 3, 4)
	dot := g.DOT()
	for _, want := range []string{"digraph", "alpha", "beta", "->", "(4)"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
