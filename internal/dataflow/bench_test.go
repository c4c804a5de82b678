package dataflow

import "testing"

func benchGraph(stages int, capacity int64) *Graph {
	g := NewGraph("bench")
	prev := g.AddActor("a0", 2)
	for i := 1; i < stages; i++ {
		cur := g.AddActor("a", uint64(1+i%3))
		g.AddBuffer("e", prev, cur, Const(1), Const(1), capacity)
		prev = cur
	}
	return g
}

func BenchmarkSimulateThroughputPipeline(b *testing.B) {
	g := benchGraph(8, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := g.Simulate(SimOptions{DetectPeriod: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Periodic {
			b.Fatal("not periodic")
		}
	}
}

func BenchmarkSimulateLongTrace(b *testing.B) {
	g := benchGraph(4, 8)
	// The last stage fires 33,333 times in the first 100,000 time units.
	stop := map[ActorID]int64{3: 33_333}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Simulate(SimOptions{StopAfterFirings: stop}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepetitions(b *testing.B) {
	g := NewGraph("reps")
	a := g.AddActor("a", 1)
	c := g.AddActor("b", 1)
	d := g.AddActor("c", 1)
	g.AddEdge("ab", a, c, Const(6), Const(4), 0)
	g.AddEdge("bc", c, d, Const(10), Const(15), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Repetitions(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandHSDF(b *testing.B) {
	g := NewGraph("exp")
	a := g.AddActor("a", 1)
	c := g.AddActor("b", 2)
	g.AddBuffer("e", a, c, Const(7), Const(3), 21)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.ExpandHSDF(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxCycleRatio(b *testing.B) {
	g := NewGraph("mcr")
	var last ActorID = -1
	var first ActorID
	for i := 0; i < 10; i++ {
		a := g.AddActor("n", uint64(1+i))
		if last >= 0 {
			g.AddEdge("e", last, a, Const(1), Const(1), int64(i%2))
		} else {
			first = a
		}
		last = a
	}
	g.AddEdge("back", last, first, Const(1), Const(1), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.MaxCycleRatio(); err != nil {
			b.Fatal(err)
		}
	}
}
