package core

import (
	"fmt"

	"accelshare/internal/dataflow"
)

// ModelParams configures the construction of the per-stream temporal models
// (Fig. 5 and Fig. 7). The producer and consumer actors model the
// environment of the shared chain (a processor task on each side).
type ModelParams struct {
	// ProducerCost is ρP, the producer's firing duration in cycles.
	ProducerCost uint64
	// ConsumerCost is ρC, the consumer's firing duration in cycles.
	ConsumerCost uint64
	// InputCapacity is α0, the capacity of the FIFO between the producer
	// and the entry gateway, in samples. Must be ≥ ηs or the gateway can
	// never assemble a block.
	InputCapacity int64
	// OutputCapacity is α3, the capacity of the FIFO between the exit
	// gateway and the consumer, in samples. Must be ≥ ηs: the entry gateway
	// reserves the whole block's worth of output space up front.
	OutputCapacity int64
	// IncludeInterference adds ε̂s (Eq. 3) to the first-phase duration of
	// the entry gateway, modelling the worst-case wait for other streams.
	IncludeInterference bool
}

// CSDFModel is the detailed per-stream CSDF model of Fig. 5: the entry
// gateway vG0 with ηs phases, the chain's accelerators, the exit gateway
// vG1 with ηs phases, and the producer/consumer environment.
type CSDFModel struct {
	Graph  *dataflow.Graph
	VP     dataflow.ActorID
	VG0    dataflow.ActorID
	VAccel []dataflow.ActorID
	VG1    dataflow.ActorID
	VC     dataflow.ActorID
	// OutEdge is the data edge vG1 → vC; its token production times are the
	// stream's output arrivals (used by the refinement checker).
	OutEdge dataflow.EdgeID
}

// BuildCSDF constructs the Fig. 5 CSDF model for stream i.
//
// Structure, matching the paper's figure:
//
//   - vP fires every ρP cycles producing one sample into the α0 FIFO.
//   - vG0 has ηs phases. Phase 0 atomically claims the whole block (ηs input
//     samples), the pipeline-idle token from vG1, and ηs spaces in the
//     OUTPUT buffer (the space check this paper adds over prior work); its
//     duration is [ε̂s+] Rs + ε. Each phase forwards one sample to the first
//     accelerator under credit flow control. The last phase releases the ηs
//     input-buffer spaces back to vP.
//   - Each accelerator consumes and produces one sample per firing (ρA);
//     NI FIFOs of capacity α1 = α2 = NIDepth sit on every hop.
//   - vG1 has ηs phases of duration δ; each moves one sample into the α3
//     output FIFO; the last phase also emits the pipeline-idle token.
//   - vC consumes one sample per firing (ρC) and releases one space token —
//     to vG0, not vG1, closing the space-check loop.
func (s *System) BuildCSDF(i int, p ModelParams) (*CSDFModel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &s.Streams[i]
	if st.Block <= 0 {
		return nil, fmt.Errorf("%w: %s", ErrBlockUnknown, st.Name)
	}
	eta := int(st.Block)
	if p.InputCapacity < st.Block {
		return nil, fmt.Errorf("core: α0 = %d < ηs = %d; the gateway could never assemble a block", p.InputCapacity, st.Block)
	}
	if p.OutputCapacity < st.Block {
		return nil, fmt.Errorf("core: α3 = %d < ηs = %d; the space check could never pass", p.OutputCapacity, st.Block)
	}

	g := dataflow.NewGraph(fmt.Sprintf("csdf.%s", st.Name))
	m := &CSDFModel{Graph: g}

	m.VP = g.AddActor("vP", p.ProducerCost)

	// Entry gateway phase durations: [ (ε̂s) + Rs + ε, ε, ε, ... ].
	g0dur := make([]uint64, eta)
	first := st.Reconfig + s.Chain.EntryCost
	if p.IncludeInterference {
		eps, err := s.EpsilonHat(i)
		if err != nil {
			return nil, err
		}
		first += eps
	}
	g0dur[0] = first
	for k := 1; k < eta; k++ {
		g0dur[k] = s.Chain.EntryCost
	}
	m.VG0 = g.AddActor("vG0", g0dur...)

	for a, cost := range s.Chain.AccelCosts {
		m.VAccel = append(m.VAccel, g.AddActor(fmt.Sprintf("vA%d", a), cost))
	}

	g1dur := make([]uint64, eta)
	for k := range g1dur {
		g1dur[k] = s.Chain.ExitCost
	}
	m.VG1 = g.AddActor("vG1", g1dur...)
	m.VC = g.AddActor("vC", p.ConsumerCost)

	// Quanta helpers for "claim everything in phase 0" and "release at the
	// last phase" patterns.
	firstOnly := make(dataflow.Quanta, eta) // [x, 0, 0, ...]
	lastOnly := make(dataflow.Quanta, eta)  // [0, ..., 0, x]
	block := st.Block
	firstOnly[0] = block
	lastOnly[eta-1] = block
	firstOne := make(dataflow.Quanta, eta)
	lastOne := make(dataflow.Quanta, eta)
	firstOne[0] = 1
	lastOne[eta-1] = 1

	// α0 FIFO: producer → entry gateway.
	g.AddEdge("in.data", m.VP, m.VG0, dataflow.Const(1), firstOnly, 0)
	g.AddEdge("in.space", m.VG0, m.VP, lastOnly, dataflow.Const(1), p.InputCapacity)

	// Pipeline-idle notification: vG1 (last phase) → vG0 (first phase).
	g.AddEdge("idle", m.VG1, m.VG0, lastOne, firstOne, 1)

	// Output space check: vC → vG0, initialised to α3.
	g.AddEdge("out.space", m.VC, m.VG0, dataflow.Const(1), firstOnly, p.OutputCapacity)

	// Gateway → first accelerator under credit flow control (α1).
	g.AddEdge("hop0.data", m.VG0, m.VAccel[0], dataflow.Const(1), dataflow.Const(1), 0)
	g.AddEdge("hop0.credit", m.VAccel[0], m.VG0, dataflow.Const(1), dataflow.Const(1), NIDepth)

	// Accelerator chain hops.
	for a := 0; a+1 < len(m.VAccel); a++ {
		g.AddEdge(fmt.Sprintf("hop%d.data", a+1), m.VAccel[a], m.VAccel[a+1], dataflow.Const(1), dataflow.Const(1), 0)
		g.AddEdge(fmt.Sprintf("hop%d.credit", a+1), m.VAccel[a+1], m.VAccel[a], dataflow.Const(1), dataflow.Const(1), NIDepth)
	}

	// Last accelerator → exit gateway (α2).
	last := m.VAccel[len(m.VAccel)-1]
	g.AddEdge("hopN.data", last, m.VG1, dataflow.Const(1), dataflow.Const(1), 0)
	g.AddEdge("hopN.credit", m.VG1, last, dataflow.Const(1), dataflow.Const(1), NIDepth)

	// Exit gateway → consumer (α3 data side; space returns via out.space).
	m.OutEdge = g.AddEdge("out.data", m.VG1, m.VC, dataflow.Const(1), dataflow.Const(1), 0)

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// BlockSchedule executes the CSDF model for exactly one block (Fig. 6) and
// returns the trace together with τs, the measured makespan from the start
// of the entry gateway's first phase to the end of the exit gateway's last
// phase.
type BlockSchedule struct {
	Trace []dataflow.Firing
	Model *CSDFModel
	// Tau is the measured block processing time τs in cycles.
	Tau uint64
	// TauHat is the Eq. 2 bound for comparison.
	TauHat uint64
}

// ScheduleBlock builds the stream's CSDF model with an idle pipeline and a
// ready block of input (the Fig. 6 scenario: ε̂s = 0) and simulates exactly
// one block through the gateways and accelerators.
func (s *System) ScheduleBlock(i int) (*BlockSchedule, error) {
	st := &s.Streams[i]
	if st.Block <= 0 {
		return nil, fmt.Errorf("%w: %s", ErrBlockUnknown, st.Name)
	}
	params := ModelParams{
		ProducerCost:        0,
		ConsumerCost:        0,
		InputCapacity:       st.Block,
		OutputCapacity:      st.Block,
		IncludeInterference: false,
	}
	m, err := s.BuildCSDF(i, params)
	if err != nil {
		return nil, err
	}
	res, err := m.Graph.Simulate(dataflow.SimOptions{
		RecordTrace:      true,
		StopAfterFirings: map[dataflow.ActorID]int64{m.VG1: st.Block},
	})
	if err != nil {
		return nil, err
	}
	sched := &BlockSchedule{Model: m}
	var start uint64
	var end uint64
	started := false
	for _, f := range res.Trace {
		if f.Actor == m.VG0 && !started {
			start = f.Start
			started = true
		}
		if f.Actor == m.VG1 && f.End > end {
			end = f.End
		}
		if f.Actor == m.VG0 || f.Actor == m.VG1 || isAccel(m, f.Actor) {
			sched.Trace = append(sched.Trace, f)
		}
	}
	if !started {
		return nil, fmt.Errorf("core: entry gateway never fired for stream %s", st.Name)
	}
	sched.Tau = end - start
	sched.TauHat, err = s.TauHat(i)
	if err != nil {
		return nil, err
	}
	return sched, nil
}

func isAccel(m *CSDFModel, a dataflow.ActorID) bool {
	for _, v := range m.VAccel {
		if v == a {
			return true
		}
	}
	return false
}
