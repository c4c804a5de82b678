package dataflow

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"math/big"
	"sort"
)

// Firing records one actor firing in an execution trace.
type Firing struct {
	Actor ActorID
	Phase int
	Start uint64
	End   uint64
}

// TokenEvent records tokens being produced onto a watched edge.
type TokenEvent struct {
	Edge  EdgeID
	Time  uint64
	Count int64
}

// SimOptions controls Simulate.
type SimOptions struct {
	// MaxEvents bounds the number of firings processed; 0 means a default
	// safety cap. Exceeding the cap returns ErrSimBudget.
	MaxEvents uint64
	// MaxTime stops the simulation once the clock passes this value (0 = no
	// limit). Stopping on MaxTime is not an error.
	MaxTime uint64
	// RecordTrace captures every firing in SimResult.Trace.
	RecordTrace bool
	// WatchEdges lists edges whose token productions are recorded in
	// SimResult.TokenEvents.
	WatchEdges []EdgeID
	// StopAfterFirings, if non-nil, stops once every listed actor has fired
	// at least the given number of times.
	StopAfterFirings map[ActorID]int64
	// DetectPeriod enables steady-state recurrence detection for exact
	// throughput extraction. The simulation stops as soon as a state repeats.
	// The recurrence-detection map holds at most one million states; when
	// the bound is hit the simulation stops with Periodic == false, which
	// typically means token counts grow without bound (inconsistent or
	// unbounded graph).
	DetectPeriod bool
}

// SimResult is the outcome of a self-timed execution.
type SimResult struct {
	// Deadlocked is set when no actor can ever fire again.
	Deadlocked bool

	// Time is the clock value when the simulation stopped.
	Time uint64
	// Firings[a] counts completed plus in-flight firings of actor a.
	Firings []int64

	Trace       []Firing
	TokenEvents []TokenEvent

	// MaxTokens[e] is the highest token count observed on edge e (after
	// production, before consumption). Useful as a buffer occupancy bound.
	MaxTokens []int64
	// MinTokens[e] is the lowest token count observed on edge e (after
	// consumption). On a back (space) edge, Initial-MinTokens is the peak
	// space in use, i.e. the capacity the execution actually needs.
	MinTokens []int64

	// Periodic results (only when SimOptions.DetectPeriod found a cycle):
	Periodic      bool
	Period        uint64  // steady-state period length in time units
	PeriodFirings []int64 // firings per actor within one period
}

// Throughput returns the exact steady-state firing rate of actor a in
// firings per time unit, or nil if the execution was not periodic. A
// deadlocked graph has throughput zero.
func (r *SimResult) Throughput(a ActorID) *big.Rat {
	if r.Deadlocked {
		return new(big.Rat)
	}
	if !r.Periodic || r.Period == 0 {
		return nil
	}
	return big.NewRat(r.PeriodFirings[a], int64(r.Period))
}

// Errors from Simulate.
var (
	ErrSimBudget   = errors.New("dataflow: simulation exceeded event budget")
	ErrZeroCycle   = errors.New("dataflow: unbounded zero-duration firing loop")
	ErrZeroPeriod  = errors.New("dataflow: periodic state with zero period (infinite throughput)")
	ErrNotPeriodic = errors.New("dataflow: no periodic steady state found within budget")
)

const (
	defaultMaxEvents = 50_000_000
	// maxStates bounds the DetectPeriod recurrence map.
	maxStates = 1_000_000
)

// completion is a pending end-of-firing event.
type completion struct {
	time  uint64
	seq   uint64
	actor ActorID
	phase int
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type simulator struct {
	g      *Graph
	opts   SimOptions
	tokens []int64
	phase  []int // next phase to fire, per actor
	busy   []bool
	events completionHeap
	seq    uint64
	now    uint64

	firings   []int64
	maxTokens []int64
	minTokens []int64
	watch     map[EdgeID]bool
	res       *SimResult

	seen map[string]snapshot
}

type snapshot struct {
	time    uint64
	firings []int64
}

// Simulate executes the graph self-timed: every actor fires as soon as all
// of its input edges carry at least the current phase's consumption quanta
// and its previous firing (implicit self-edge) has completed.
func (g *Graph) Simulate(opts SimOptions) (*SimResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxEvents == 0 {
		opts.MaxEvents = defaultMaxEvents
	}
	s := &simulator{
		g:         g,
		opts:      opts,
		tokens:    make([]int64, len(g.Edges)),
		phase:     make([]int, len(g.Actors)),
		busy:      make([]bool, len(g.Actors)),
		firings:   make([]int64, len(g.Actors)),
		maxTokens: make([]int64, len(g.Edges)),
		minTokens: make([]int64, len(g.Edges)),
		res:       &SimResult{},
	}
	for i := range g.Edges {
		s.tokens[i] = g.Edges[i].Initial
		s.maxTokens[i] = g.Edges[i].Initial
		s.minTokens[i] = g.Edges[i].Initial
	}
	if len(opts.WatchEdges) > 0 {
		s.watch = make(map[EdgeID]bool, len(opts.WatchEdges))
		for _, e := range opts.WatchEdges {
			s.watch[e] = true
		}
	}
	if opts.DetectPeriod {
		s.seen = make(map[string]snapshot)
	}
	err := s.run()
	s.res.Time = s.now
	s.res.Firings = s.firings
	s.res.MaxTokens = s.maxTokens
	s.res.MinTokens = s.minTokens
	return s.res, err
}

func (s *simulator) enabled(a ActorID) bool {
	if s.busy[a] {
		return false
	}
	p := s.phase[a]
	for _, eid := range s.g.in[a] {
		e := &s.g.Edges[eid]
		if s.tokens[eid] < e.Cons.At(p) {
			return false
		}
	}
	return true
}

func (s *simulator) fire(a ActorID) {
	p := s.phase[a]
	act := &s.g.Actors[a]
	for _, eid := range s.g.in[a] {
		s.tokens[eid] -= s.g.Edges[eid].Cons.At(p)
		if s.tokens[eid] < s.minTokens[eid] {
			s.minTokens[eid] = s.tokens[eid]
		}
	}
	s.busy[a] = true
	s.firings[a]++
	dur := act.Duration[p%len(act.Duration)]
	s.seq++
	heap.Push(&s.events, completion{time: s.now + dur, seq: s.seq, actor: a, phase: p})
	if s.opts.RecordTrace {
		s.res.Trace = append(s.res.Trace, Firing{Actor: a, Phase: p, Start: s.now, End: s.now + dur})
	}
}

func (s *simulator) complete(c completion) {
	a := c.actor
	for _, eid := range s.g.out[a] {
		e := &s.g.Edges[eid]
		n := e.Prod.At(c.phase)
		if n == 0 {
			continue
		}
		s.tokens[eid] += n
		if s.tokens[eid] > s.maxTokens[eid] {
			s.maxTokens[eid] = s.tokens[eid]
		}
		if s.watch[eid] {
			s.res.TokenEvents = append(s.res.TokenEvents, TokenEvent{Edge: eid, Time: s.now, Count: n})
		}
	}
	s.phase[a] = (c.phase + 1) % s.g.Actors[a].Phases()
	s.busy[a] = false
}

// fireEnabled fires every enabled actor at the current time, cascading
// through zero-duration completions, until the instant is quiescent.
func (s *simulator) fireEnabled() error {
	guard := 0
	for {
		fired := false
		for a := range s.g.Actors {
			if s.enabled(ActorID(a)) {
				s.fire(ActorID(a))
				fired = true
			}
		}
		// Drain zero-duration completions at the current instant so chained
		// zero-cost actors make progress within one time step.
		drained := false
		for len(s.events) > 0 && s.events[0].time == s.now {
			c := heap.Pop(&s.events).(completion)
			s.complete(c)
			drained = true
		}
		if !fired && !drained {
			return nil
		}
		guard++
		if guard > 1_000_000 {
			return ErrZeroCycle
		}
	}
}

func (s *simulator) stopConditionMet() bool {
	if s.opts.StopAfterFirings == nil {
		return false
	}
	for a, n := range s.opts.StopAfterFirings {
		if s.firings[a] < n {
			return false
		}
	}
	return true
}

// stateKey serialises the normalised simulator state: token counts, actor
// phases, and the multiset of (actor, remaining-time) for in-flight firings.
func (s *simulator) stateKey() string {
	buf := make([]byte, 0, 16*(len(s.tokens)+len(s.phase)+len(s.events)))
	var tmp [8]byte
	for _, t := range s.tokens {
		binary.LittleEndian.PutUint64(tmp[:], uint64(t))
		buf = append(buf, tmp[:]...)
	}
	for _, p := range s.phase {
		binary.LittleEndian.PutUint64(tmp[:], uint64(p))
		buf = append(buf, tmp[:]...)
	}
	type rem struct {
		actor ActorID
		left  uint64
		phase int
	}
	rems := make([]rem, 0, len(s.events))
	for _, c := range s.events {
		rems = append(rems, rem{c.actor, c.time - s.now, c.phase})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].actor != rems[j].actor {
			return rems[i].actor < rems[j].actor
		}
		if rems[i].left != rems[j].left {
			return rems[i].left < rems[j].left
		}
		return rems[i].phase < rems[j].phase
	})
	for _, r := range rems {
		binary.LittleEndian.PutUint64(tmp[:], uint64(r.actor))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], r.left)
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(r.phase))
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

func (s *simulator) run() error {
	var processed uint64
	for {
		if err := s.fireEnabled(); err != nil {
			return err
		}
		if s.stopConditionMet() {
			return nil
		}
		if s.opts.DetectPeriod {
			key := s.stateKey()
			if len(s.seen) >= maxStates {
				return nil // give up on periodicity; res.Periodic stays false
			}
			if prev, ok := s.seen[key]; ok {
				s.res.Periodic = true
				s.res.Period = s.now - prev.time
				s.res.PeriodFirings = make([]int64, len(s.firings))
				for i := range s.firings {
					s.res.PeriodFirings[i] = s.firings[i] - prev.firings[i]
				}
				if s.res.Period == 0 {
					return ErrZeroPeriod
				}
				return nil
			}
			s.seen[key] = snapshot{time: s.now, firings: append([]int64(nil), s.firings...)}
		}
		if len(s.events) == 0 {
			s.res.Deadlocked = true
			return nil
		}
		next := s.events[0].time
		if s.opts.MaxTime > 0 && next > s.opts.MaxTime {
			s.now = s.opts.MaxTime
			return nil
		}
		s.now = next
		for len(s.events) > 0 && s.events[0].time == s.now {
			c := heap.Pop(&s.events).(completion)
			s.complete(c)
			processed++
		}
		if processed > s.opts.MaxEvents {
			return ErrSimBudget
		}
	}
}

// ThroughputOf runs the graph to a periodic steady state and returns the
// exact firing rate of the given actor (firings per time unit). A deadlock
// yields zero. ErrNotPeriodic is returned when no recurrence is found within
// the event budget.
func (g *Graph) ThroughputOf(a ActorID, maxEvents uint64) (*big.Rat, error) {
	res, err := g.Simulate(SimOptions{DetectPeriod: true, MaxEvents: maxEvents})
	if err != nil {
		return nil, err
	}
	if res.Deadlocked {
		return new(big.Rat), nil
	}
	if !res.Periodic {
		return nil, ErrNotPeriodic
	}
	return res.Throughput(a), nil
}
