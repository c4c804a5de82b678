package core

import (
	"math/big"
	"testing"
)

func BenchmarkBuildCSDF(b *testing.B) {
	s := smallSystem(64, 32)
	p := ModelParams{InputCapacity: 128, OutputCapacity: 128, IncludeInterference: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.BuildCSDF(0, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleBlock(b *testing.B) {
	s := smallSystem(256)
	for i := 0; i < b.N; i++ {
		if _, err := s.ScheduleBlock(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckRefinement(b *testing.B) {
	s := smallSystem(8, 16)
	p := ModelParams{ProducerCost: 1, ConsumerCost: 2, InputCapacity: 16, OutputCapacity: 16, IncludeInterference: true}
	for i := 0; i < b.N; i++ {
		rep, err := s.CheckRefinement(0, p, 32)
		if err != nil || !rep.Refines {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

func BenchmarkSharedFIFOSimulation(b *testing.B) {
	cfg := Fig9Config{Capacity: 4, Service: [2]uint64{1, 50}, Policy: Interleaved}
	arr := fig9Schedule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateSharedFIFO(cfg, arr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalBlockSizesForMemory(b *testing.B) {
	s := &System{
		Chain:   Chain{Name: "m", AccelCosts: []uint64{2}, EntryCost: 3, ExitCost: 1},
		ClockHz: 1_000_000,
		Streams: []Stream{
			{Name: "s0", Rate: big.NewRat(34_000, 1), Reconfig: 40, ProducerBurst: 5},
			{Name: "s1", Rate: big.NewRat(34_000, 1), Reconfig: 40, ProducerBurst: 5},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.OptimalBlockSizesForMemory(4, 1); err != nil {
			b.Fatal(err)
		}
	}
}
