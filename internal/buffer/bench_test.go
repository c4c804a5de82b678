package buffer

import (
	"testing"

	"accelshare/internal/dataflow"
)

func BenchmarkMinCapacitySingleChannel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := dataflow.NewGraph("bench")
		a := g.AddActor("a", 5)
		c := g.AddActor("b", 0)
		fwd, back := g.AddBuffer("ab", a, c, dataflow.Const(5), dataflow.Const(3), 1)
		s := &Sizer{G: g, Channels: []Channel{{Fwd: fwd, Back: back}}, Monitor: a}
		maxTh, err := s.MaxThroughput()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.MinCapacitiesForThroughput(maxTh); err != nil {
			b.Fatal(err)
		}
	}
}
