package ring

import (
	"testing"

	"accelshare/internal/sim"
)

func BenchmarkRingWordThroughput(b *testing.B) {
	k := sim.NewKernel()
	r, err := New(k, Config{Nodes: 8, HopLatency: 1, Direction: Clockwise, InjectionDepth: 16})
	if err != nil {
		b.Fatal(err)
	}
	received := 0
	h := r.Node(4).Bind(func(Message) { received++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !r.Node(0).TrySend(h, sim.Word(i)) {
			k.RunAll()
		}
	}
	k.RunAll()
	if received != b.N {
		b.Fatalf("received %d of %d", received, b.N)
	}
}

func BenchmarkDualRingCreditLoop(b *testing.B) {
	k := sim.NewKernel()
	d, err := NewDual(k, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	credits := 0
	ch := d.Credit.Node(0).Bind(func(Message) { credits++ })
	dh := d.Data.Node(1).Bind(func(m Message) {
		// bounce a credit back
		d.Credit.Node(1).TrySend(ch, 1)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !d.Data.Node(0).TrySend(dh, 0) {
			k.RunAll()
		}
	}
	k.RunAll()
	if credits == 0 {
		b.Fatal("no credits returned")
	}
}

// BenchmarkRingUncontendedSend sends one word per cycle from an idle node,
// the path on which a word leaves inside TrySend and its pump step is
// skipped: one event (the delivery) per word.
func BenchmarkRingUncontendedSend(b *testing.B) {
	k := sim.NewKernel()
	r, err := New(k, Config{Nodes: 8, HopLatency: 1, Direction: Clockwise, InjectionDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	received := 0
	h := r.Node(4).Bind(func(Message) { received++ })
	n := r.Node(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.TrySend(h, sim.Word(i)) {
			b.Fatal("uncontended send refused")
		}
		k.Run(k.Now() + 1)
	}
	k.RunAll()
	if received != b.N {
		b.Fatalf("received %d of %d", received, b.N)
	}
}
