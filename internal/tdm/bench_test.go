package tdm

import (
	"testing"

	"accelshare/internal/sim"
)

func BenchmarkCrossbarWordThroughput(b *testing.B) {
	k := sim.NewKernel()
	x, err := New(k, Config{Nodes: 4, WheelSlots: 4})
	if err != nil {
		b.Fatal(err)
	}
	x.Reserve(0, 0, 2)
	x.Reserve(1, 0, 2)
	recv := 0
	x.Node(2).Bind(0, func(Message) { recv++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !x.Node(0).TrySend(2, 0, sim.Word(i)) {
			k.RunAll()
		}
	}
	k.RunAll()
	if recv != b.N {
		b.Fatalf("received %d of %d", recv, b.N)
	}
}
