// Package dataflow implements Synchronous Data Flow (SDF) and Cyclo-Static
// Data Flow (CSDF) graphs together with the temporal analyses the paper's
// accelerator-sharing models are built on: repetition vectors and
// self-timed execution with exact throughput extraction. The package's
// tests hold HSDF expansion and maximum cycle ratio analysis as an
// independent oracle for that throughput.
//
// Conventions (paper §V-A):
//
//   - Every actor has an implicit self-edge carrying one token, so firings of
//     one actor never overlap (no auto-concurrency).
//   - Tokens are consumed at firing start and produced at firing end.
//   - A CSDF actor cycles through its phases; quanta and firing durations are
//     per-phase lists. An SDF actor is a CSDF actor with one phase.
//   - Bounded buffers are modelled as a forward edge plus a back edge whose
//     initial tokens equal the buffer capacity.
package dataflow

import (
	"errors"
	"fmt"
	"strings"
)

// ActorID identifies an actor within one Graph. IDs are dense indices
// assigned by AddActor in insertion order.
type ActorID int

// EdgeID identifies an edge within one Graph, dense in insertion order.
type EdgeID int

// Quanta is a cyclic per-phase rate list. A firing in phase p consumes or
// produces Quanta[p mod len] tokens. Rates may be zero (a phase that does not
// touch the port) but never negative.
type Quanta []int64

// Sum returns the number of tokens moved by one full cycle through all
// phases.
func (q Quanta) Sum() int64 {
	var s int64
	for _, v := range q {
		s += v
	}
	return s
}

// At returns the rate for phase p, treating the list as cyclic.
func (q Quanta) At(p int) int64 {
	return q[p%len(q)]
}

// Const is shorthand for a single-phase (SDF) rate.
func Const(v int64) Quanta { return Quanta{v} }

func (q Quanta) String() string {
	if len(q) == 1 {
		return fmt.Sprintf("%d", q[0])
	}
	parts := make([]string, len(q))
	for i, v := range q {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Actor is a CSDF actor. Duration holds the firing duration of each phase in
// abstract time units (clock cycles throughout this repository). The number
// of phases of the actor is len(Duration); all quanta lists on adjacent
// edges must have the same length (or length 1, which is broadcast).
type Actor struct {
	Name     string
	Duration []uint64
}

// Phases returns the number of CSDF phases of the actor.
func (a *Actor) Phases() int { return len(a.Duration) }

// Edge is a directed token queue between two actors. Initial is the number
// of tokens present before execution starts.
type Edge struct {
	Name    string
	Src     ActorID
	Dst     ActorID
	Prod    Quanta // indexed by the producer's phase
	Cons    Quanta // indexed by the consumer's phase
	Initial int64
}

// Graph is an SDF/CSDF graph under construction or analysis. The zero value
// is an empty graph ready for AddActor/AddEdge.
type Graph struct {
	Name   string
	Actors []Actor
	Edges  []Edge

	// in[a] and out[a] list edge ids incident to actor a. Maintained by
	// AddEdge; rebuilt by Validate if nil (e.g. after manual construction).
	in, out [][]EdgeID
}

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// AddActor appends an actor with the given per-phase firing durations and
// returns its id. At least one phase is required.
func (g *Graph) AddActor(name string, durations ...uint64) ActorID {
	if len(durations) == 0 {
		durations = []uint64{0}
	}
	g.Actors = append(g.Actors, Actor{Name: name, Duration: durations})
	g.in = append(g.in, nil)
	g.out = append(g.out, nil)
	return ActorID(len(g.Actors) - 1)
}

// AddEdge connects src to dst with the given production and consumption
// quanta and initial tokens, returning the edge id.
func (g *Graph) AddEdge(name string, src, dst ActorID, prod, cons Quanta, initial int64) EdgeID {
	id := EdgeID(len(g.Edges))
	g.Edges = append(g.Edges, Edge{Name: name, Src: src, Dst: dst, Prod: prod, Cons: cons, Initial: initial})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	return id
}

// AddBuffer models a bounded FIFO of the given capacity between src and dst:
// a forward edge with initial tokens of 0 and a back edge initialised to the
// capacity. It returns the forward and back edge ids.
func (g *Graph) AddBuffer(name string, src, dst ActorID, prod, cons Quanta, capacity int64) (fwd, back EdgeID) {
	fwd = g.AddEdge(name, src, dst, prod, cons, 0)
	back = g.AddEdge(name+".space", dst, src, cons, prod, capacity)
	return fwd, back
}

// Errors returned by Validate.
var (
	ErrEmptyGraph   = errors.New("dataflow: graph has no actors")
	ErrBadQuanta    = errors.New("dataflow: quanta list length does not match actor phase count")
	ErrNegativeRate = errors.New("dataflow: negative rate")
	ErrNegativeInit = errors.New("dataflow: negative initial tokens")
	ErrDangling     = errors.New("dataflow: edge references unknown actor")
	ErrNoPhases     = errors.New("dataflow: actor has no phases")
)

// Validate checks structural well-formedness: every edge connects existing
// actors, quanta lengths match (or broadcast from length 1 to) the adjacent
// actor's phase count, and no rate or initial marking is negative.
func (g *Graph) Validate() error {
	if len(g.Actors) == 0 {
		return ErrEmptyGraph
	}
	for i := range g.Actors {
		if len(g.Actors[i].Duration) == 0 {
			return fmt.Errorf("%w: actor %q", ErrNoPhases, g.Actors[i].Name)
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Src < 0 || int(e.Src) >= len(g.Actors) || e.Dst < 0 || int(e.Dst) >= len(g.Actors) {
			return fmt.Errorf("%w: edge %q", ErrDangling, e.Name)
		}
		if e.Initial < 0 {
			return fmt.Errorf("%w: edge %q", ErrNegativeInit, e.Name)
		}
		if err := checkQuanta(e.Prod, g.Actors[e.Src].Phases(), e.Name, "prod"); err != nil {
			return err
		}
		if err := checkQuanta(e.Cons, g.Actors[e.Dst].Phases(), e.Name, "cons"); err != nil {
			return err
		}
	}
	g.rebuildAdjacency()
	return nil
}

func checkQuanta(q Quanta, phases int, edge, side string) error {
	if len(q) != 1 && len(q) != phases {
		return fmt.Errorf("%w: edge %q %s has %d entries, actor has %d phases", ErrBadQuanta, edge, side, len(q), phases)
	}
	for _, v := range q {
		if v < 0 {
			return fmt.Errorf("%w: edge %q %s", ErrNegativeRate, edge, side)
		}
	}
	return nil
}

func (g *Graph) rebuildAdjacency() {
	g.in = make([][]EdgeID, len(g.Actors))
	g.out = make([][]EdgeID, len(g.Actors))
	for i := range g.Edges {
		g.out[g.Edges[i].Src] = append(g.out[g.Edges[i].Src], EdgeID(i))
		g.in[g.Edges[i].Dst] = append(g.in[g.Edges[i].Dst], EdgeID(i))
	}
}

// Clone returns a deep copy of the graph; mutations of the copy do not
// affect the original.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name}
	c.Actors = make([]Actor, len(g.Actors))
	for i, a := range g.Actors {
		c.Actors[i] = Actor{Name: a.Name, Duration: append([]uint64(nil), a.Duration...)}
	}
	c.Edges = make([]Edge, len(g.Edges))
	for i, e := range g.Edges {
		c.Edges[i] = Edge{
			Name: e.Name, Src: e.Src, Dst: e.Dst,
			Prod: append(Quanta(nil), e.Prod...), Cons: append(Quanta(nil), e.Cons...),
			Initial: e.Initial,
		}
	}
	c.rebuildAdjacency()
	return c
}

// DOT renders the graph in Graphviz dot syntax for inspection.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", g.Name)
	for i, a := range g.Actors {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\nρ=%v\" shape=circle];\n", i, a.Name, a.Duration)
	}
	for _, e := range g.Edges {
		style := ""
		if e.Initial > 0 {
			style = fmt.Sprintf(" label=\"%s/%s (%d)\"", e.Prod, e.Cons, e.Initial)
		} else {
			style = fmt.Sprintf(" label=\"%s/%s\"", e.Prod, e.Cons)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.Src, e.Dst, strings.TrimSpace(style))
	}
	b.WriteString("}\n")
	return b.String()
}
