package cfifo

import (
	"testing"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

func BenchmarkWordThroughput(b *testing.B) {
	k := sim.NewKernel()
	net, err := ring.NewDual(k, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(k, net, Config{
		Name: "b", Capacity: 64,
		ProducerNode: 0, ConsumerNode: 2,
		AckBatch: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	sent, recv := 0, 0
	var prod, cons *sim.Waker
	prod = sim.NewWaker(k, func() {
		for sent < b.N && f.TryWrite(sim.Word(sent)) {
			sent++
		}
	})
	cons = sim.NewWaker(k, func() {
		for {
			if _, ok := f.TryRead(); !ok {
				break
			}
			recv++
		}
	})
	f.SubscribeSpace(prod)
	f.SubscribeData(cons)
	b.ReportAllocs()
	b.ResetTimer()
	prod.Wake()
	k.RunAll()
	for recv < b.N {
		prod.Wake()
		k.RunAll()
	}
}
