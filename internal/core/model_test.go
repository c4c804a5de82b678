package core

import (
	"math/big"
	"slices"
	"testing"

	"accelshare/internal/dataflow"
)

func smallSystem(blocks ...int64) *System {
	s := &System{
		Chain:   Chain{Name: "acc", AccelCosts: []uint64{3}, EntryCost: 2, ExitCost: 1},
		ClockHz: 100_000_000,
	}
	for i, b := range blocks {
		s.Streams = append(s.Streams, Stream{
			Name:     string(rune('a' + i)),
			Rate:     big.NewRat(1000, 1),
			Reconfig: 50,
			Block:    b,
		})
	}
	return s
}

func TestBuildCSDFStructure(t *testing.T) {
	s := smallSystem(4, 2)
	m, err := s.BuildCSDF(0, ModelParams{InputCapacity: 8, OutputCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph
	if g.Actors[m.VG0].Phases() != 4 {
		t.Errorf("vG0 phases = %d, want ηs = 4", g.Actors[m.VG0].Phases())
	}
	if g.Actors[m.VG1].Phases() != 4 {
		t.Errorf("vG1 phases = %d, want 4", g.Actors[m.VG1].Phases())
	}
	// First phase duration = Rs + ε = 52, others ε = 2.
	if d := g.Actors[m.VG0].Duration; d[0] != 52 || d[1] != 2 {
		t.Errorf("vG0 durations = %v", d)
	}
	if len(m.VAccel) != 1 {
		t.Fatalf("accelerators = %d", len(m.VAccel))
	}
	if g.Actors[m.VAccel[0]].Duration[0] != 3 {
		t.Errorf("accelerator duration = %v", g.Actors[m.VAccel[0]].Duration)
	}
	// The space-check edge must run from vC to vG0.
	id := slices.IndexFunc(g.Edges, func(e dataflow.Edge) bool { return e.Name == "out.space" })
	if id < 0 {
		t.Fatal("out.space edge missing")
	}
	e := g.Edges[id]
	if e.Src != m.VC || e.Dst != m.VG0 {
		t.Errorf("space check edge runs %v->%v, want vC->vG0", e.Src, e.Dst)
	}
	if e.Initial != 8 {
		t.Errorf("space check initial = %d, want α3 = 8", e.Initial)
	}
}

func TestBuildCSDFWithInterference(t *testing.T) {
	s := smallSystem(4, 2)
	m, err := s.BuildCSDF(0, ModelParams{InputCapacity: 4, OutputCapacity: 4, IncludeInterference: true})
	if err != nil {
		t.Fatal(err)
	}
	eps, _ := s.EpsilonHat(0) // τ̂(1) = 50 + 4·3 = 62
	if eps != 62 {
		t.Fatalf("ε̂ = %d, want 62", eps)
	}
	if d := m.Graph.Actors[m.VG0].Duration[0]; d != 62+50+2 {
		t.Errorf("first phase = %d, want ε̂+Rs+ε = 114", d)
	}
}

func TestBuildCSDFRejectsSmallBuffers(t *testing.T) {
	s := smallSystem(4)
	if _, err := s.BuildCSDF(0, ModelParams{InputCapacity: 3, OutputCapacity: 8}); err == nil {
		t.Error("α0 < ηs accepted")
	}
	if _, err := s.BuildCSDF(0, ModelParams{InputCapacity: 8, OutputCapacity: 3}); err == nil {
		t.Error("α3 < ηs accepted")
	}
	s.Streams[0].Block = 0
	if _, err := s.BuildCSDF(0, ModelParams{InputCapacity: 8, OutputCapacity: 8}); err == nil {
		t.Error("unset block accepted")
	}
}

func TestBuildCSDFMultiAccelerator(t *testing.T) {
	s := smallSystem(3)
	s.Chain.AccelCosts = []uint64{1, 2, 1}
	m, err := s.BuildCSDF(0, ModelParams{InputCapacity: 3, OutputCapacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.VAccel) != 3 {
		t.Fatalf("accelerators = %d, want 3", len(m.VAccel))
	}
	// Chain must be consistent and runnable.
	res, err := m.Graph.Simulate(dataflow.SimOptions{
		StopAfterFirings: map[dataflow.ActorID]int64{m.VC: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("multi-accelerator CSDF deadlocked")
	}
}

func TestScheduleBlockRespectsTauHat(t *testing.T) {
	for _, eta := range []int64{1, 2, 5, 16, 100} {
		s := smallSystem(eta)
		sched, err := s.ScheduleBlock(0)
		if err != nil {
			t.Fatalf("η=%d: %v", eta, err)
		}
		if sched.Tau > sched.TauHat {
			t.Errorf("η=%d: measured τ = %d exceeds bound τ̂ = %d", eta, sched.Tau, sched.TauHat)
		}
		// The bound should be reasonably tight: within Rs + 3·c0 slack.
		slack := sched.TauHat - sched.Tau
		if slack > s.Streams[0].Reconfig+3*s.Chain.C0() {
			t.Errorf("η=%d: τ̂ = %d much looser than τ = %d (slack %d)", eta, sched.TauHat, sched.Tau, slack)
		}
		if len(sched.Trace) == 0 {
			t.Errorf("η=%d: empty schedule trace", eta)
		}
	}
}

func TestScheduleBlockPALScale(t *testing.T) {
	// The real PAL block size: 9831 samples through a 2-accelerator chain.
	s := palSystem()
	if _, err := s.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	sched, err := s.ScheduleBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Tau > sched.TauHat {
		t.Errorf("τ = %d > τ̂ = %d", sched.Tau, sched.TauHat)
	}
	t.Logf("PAL stage-1 block: τ = %d cycles, τ̂ = %d cycles", sched.Tau, sched.TauHat)
}

func TestCheckRefinementCSDFRefinesSDF(t *testing.T) {
	for _, eta := range []int64{1, 2, 4, 8} {
		s := smallSystem(eta, 2*eta)
		p := ModelParams{
			ProducerCost:        1,
			ConsumerCost:        2,
			InputCapacity:       2 * eta,
			OutputCapacity:      2 * eta,
			IncludeInterference: true,
		}
		rep, err := s.CheckRefinement(0, p, 6*eta)
		if err != nil {
			t.Fatalf("η=%d: %v", eta, err)
		}
		if !rep.Refines {
			t.Errorf("η=%d: CSDF does not refine SDF; token %d at %d vs %d",
				eta, rep.FirstViolation,
				rep.RefinedTimes[rep.FirstViolation], rep.AbstractTimes[rep.FirstViolation])
		}
	}
}

func TestSDFAbstractionConservative(t *testing.T) {
	// The SDF model's guaranteed rate (Eq. 5) must not exceed what the CSDF
	// model actually achieves: simulate the CSDF in steady state and compare
	// consumer firing rates.
	s := smallSystem(8)
	p := ModelParams{ProducerCost: 1, ConsumerCost: 1, InputCapacity: 16, OutputCapacity: 16, IncludeInterference: true}
	m, err := s.BuildCSDF(0, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Graph.Simulate(dataflow.SimOptions{DetectPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Periodic {
		t.Fatal("CSDF not periodic")
	}
	csdfRate := res.Throughput(m.VC) // samples per cycle
	gamma, _ := s.GammaHat(0)
	sdfRate := big.NewRat(s.Streams[0].Block, int64(gamma))
	if csdfRate.Cmp(sdfRate) < 0 {
		t.Errorf("CSDF rate %v below SDF guarantee %v — abstraction not conservative", csdfRate, sdfRate)
	}
	t.Logf("CSDF steady rate %v vs SDF guarantee %v (pessimism ratio %v)",
		csdfRate, sdfRate, new(big.Rat).Quo(csdfRate, sdfRate))
}

func TestOutputArrivalsErrorsOnDeadlock(t *testing.T) {
	g := dataflow.NewGraph("dl")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	e := g.AddEdge("ab", a, b, dataflow.Const(1), dataflow.Const(1), 0)
	g.AddEdge("ba", b, a, dataflow.Const(1), dataflow.Const(1), 0)
	if _, err := OutputArrivals(g, e, b, 3); err == nil {
		t.Error("deadlocked graph should fail to produce arrivals")
	}
}

func TestCompareArrivals(t *testing.T) {
	rep := CompareArrivals([]uint64{1, 2, 3}, []uint64{1, 2, 3})
	if !rep.Refines {
		t.Error("equal sequences must refine")
	}
	rep = CompareArrivals([]uint64{1, 5, 3}, []uint64{1, 4, 9})
	if rep.Refines || rep.FirstViolation != 1 {
		t.Errorf("late token not detected: %+v", rep)
	}
}

func TestBuildSDFDurations(t *testing.T) {
	s := smallSystem(4, 2)
	tau, _ := s.TauHat(0)
	gamma, _ := s.GammaHat(0)
	iso, err := s.BuildSDF(0, ModelParams{InputCapacity: 4, OutputCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if iso.Graph.Actors[iso.VS].Duration[0] != tau {
		t.Errorf("isolated vS duration = %d, want τ̂ = %d", iso.Graph.Actors[iso.VS].Duration[0], tau)
	}
	sh, err := s.BuildSDF(0, ModelParams{InputCapacity: 4, OutputCapacity: 4, IncludeInterference: true})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Graph.Actors[sh.VS].Duration[0] != gamma {
		t.Errorf("shared vS duration = %d, want γ̂ = %d", sh.Graph.Actors[sh.VS].Duration[0], gamma)
	}
}
