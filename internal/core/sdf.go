package core

import (
	"fmt"

	"accelshare/internal/dataflow"
)

// SDFModel is the single-actor abstraction of Fig. 7: the whole gateway +
// accelerator chain collapses into one actor vS with firing duration γ̂s
// that consumes a block of ηs samples and produces ηs samples atomically.
type SDFModel struct {
	Graph   *dataflow.Graph
	VP      dataflow.ActorID
	VS      dataflow.ActorID
	VC      dataflow.ActorID
	OutEdge dataflow.EdgeID
}

// BuildSDF constructs the Fig. 7 abstraction for stream i. The firing
// duration of vS is γ̂s when params.IncludeInterference is set (the shared
// case, Eq. 4) and τ̂s otherwise (the stream in isolation, Eq. 2).
func (s *System) BuildSDF(i int, p ModelParams) (*SDFModel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &s.Streams[i]
	if st.Block <= 0 {
		return nil, fmt.Errorf("%w: %s", ErrBlockUnknown, st.Name)
	}
	if p.InputCapacity < st.Block || p.OutputCapacity < st.Block {
		return nil, fmt.Errorf("core: SDF buffers must hold at least one block (α0=%d α3=%d ηs=%d)",
			p.InputCapacity, p.OutputCapacity, st.Block)
	}
	var dur uint64
	var err error
	if p.IncludeInterference {
		dur, err = s.GammaHat(i)
	} else {
		dur, err = s.TauHat(i)
	}
	if err != nil {
		return nil, err
	}
	g := dataflow.NewGraph(fmt.Sprintf("sdf.%s", st.Name))
	m := &SDFModel{Graph: g}
	m.VP = g.AddActor("vP", p.ProducerCost)
	m.VS = g.AddActor("vS", dur)
	m.VC = g.AddActor("vC", p.ConsumerCost)

	eta := st.Block
	g.AddEdge("in.data", m.VP, m.VS, dataflow.Const(1), dataflow.Const(eta), 0)
	g.AddEdge("in.space", m.VS, m.VP, dataflow.Const(eta), dataflow.Const(1), p.InputCapacity)
	m.OutEdge = g.AddEdge("out.data", m.VS, m.VC, dataflow.Const(eta), dataflow.Const(1), 0)
	g.AddEdge("out.space", m.VC, m.VS, dataflow.Const(1), dataflow.Const(eta), p.OutputCapacity)

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// OutputArrivals simulates a model until the consumer-side data edge has
// carried at least n tokens and returns the arrival time of each token
// (token k = the k-th sample available to vC), expanding multi-token
// productions into per-token timestamps.
func OutputArrivals(g *dataflow.Graph, out dataflow.EdgeID, consumer dataflow.ActorID, n int64) ([]uint64, error) {
	res, err := g.Simulate(dataflow.SimOptions{
		WatchEdges:       []dataflow.EdgeID{out},
		StopAfterFirings: map[dataflow.ActorID]int64{consumer: n},
		MaxEvents:        50_000_000,
	})
	if err != nil {
		return nil, err
	}
	var times []uint64
	for _, ev := range res.TokenEvents {
		for k := int64(0); k < ev.Count; k++ {
			times = append(times, ev.Time)
		}
	}
	if int64(len(times)) < n {
		return nil, fmt.Errorf("core: only %d of %d output tokens arrived (deadlock=%v)",
			len(times), n, res.Deadlocked)
	}
	return times[:n], nil
}

// RefinementReport compares token arrival times between a refined model and
// its abstraction.
type RefinementReport struct {
	// Refines is true when every refined-model token arrives no later than
	// the corresponding abstract-model token (the-earlier-the-better).
	Refines bool
	// FirstViolation is the index of the first late token (valid when
	// !Refines).
	FirstViolation int
	// RefinedTimes and AbstractTimes are the compared arrival sequences.
	RefinedTimes, AbstractTimes []uint64
}

// CheckRefinement verifies the-earlier-the-better refinement between the
// detailed CSDF model (refined) and the single-actor SDF abstraction for
// stream i over n output tokens: CSDF ⊑ SDF. Both models see the same
// producer/consumer environment. Per the paper (§V-C), the only accuracy
// loss is that the SDF actor produces its whole block atomically at the end
// of the firing while the CSDF exit gateway streams tokens out as they
// appear — so every CSDF token must arrive no later than its SDF
// counterpart.
func (s *System) CheckRefinement(i int, p ModelParams, n int64) (*RefinementReport, error) {
	csdf, err := s.BuildCSDF(i, p)
	if err != nil {
		return nil, err
	}
	sdf, err := s.BuildSDF(i, p)
	if err != nil {
		return nil, err
	}
	ct, err := OutputArrivals(csdf.Graph, csdf.OutEdge, csdf.VC, n)
	if err != nil {
		return nil, fmt.Errorf("csdf arrivals: %w", err)
	}
	at, err := OutputArrivals(sdf.Graph, sdf.OutEdge, sdf.VC, n)
	if err != nil {
		return nil, fmt.Errorf("sdf arrivals: %w", err)
	}
	return CompareArrivals(ct, at), nil
}

// CompareArrivals checks the-earlier-the-better between two arbitrary
// arrival sequences (refined vs abstract).
func CompareArrivals(refined, abstract []uint64) *RefinementReport {
	rep := &RefinementReport{Refines: true, FirstViolation: -1, RefinedTimes: refined, AbstractTimes: abstract}
	n := len(refined)
	if len(abstract) < n {
		n = len(abstract)
	}
	for k := 0; k < n; k++ {
		if refined[k] > abstract[k] {
			rep.Refines = false
			rep.FirstViolation = k
			break
		}
	}
	return rep
}
