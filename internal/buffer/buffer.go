// Package buffer computes minimum buffer capacities for SDF/CSDF graphs, the
// analysis the paper delegates to Geilen/Basten/Stuijk [20]. Capacities are
// modelled as initial tokens on back edges; throughput is monotonically
// non-decreasing in every capacity (a classical property of self-timed
// dataflow execution), which makes per-channel binary search sound. The
// sizer finds capacities no single channel can shrink below; with one
// channel, as in Fig. 8, that is the exact minimum.
//
// The paper's Fig. 8 uses this machinery to demonstrate that minimum buffer
// capacities are NOT monotone in the block size ηs, which is why block sizes
// cannot simply be minimised to minimise memory.
package buffer

import (
	"errors"
	"math/big"

	"accelshare/internal/dataflow"
)

// Channel identifies one bounded FIFO in a graph: the forward (data) edge
// and the back (space) edge created by Graph.AddBuffer. The capacity of the
// channel is the initial-token count of the back edge.
type Channel struct {
	Fwd  dataflow.EdgeID
	Back dataflow.EdgeID
}

// Sizer computes buffer capacities for the channels of a graph. Monitor is
// the actor whose steady-state firing rate defines "throughput".
type Sizer struct {
	G        *dataflow.Graph
	Channels []Channel
	Monitor  dataflow.ActorID
}

// maxEvents bounds each underlying simulation.
const maxEvents = 20_000_000

// ErrInfeasible is returned when no capacity assignment reaches the target.
var ErrInfeasible = errors.New("buffer: throughput target infeasible at any capacity")

// relaxed returns per-channel capacities large enough not to constrain any
// schedule: several iterations' worth of tokens plus slack. Keeping the
// values proportional to the iteration volume (rather than "infinite")
// bounds the state space of the recurrence detector.
func (s *Sizer) relaxed() ([]int64, error) {
	rv, err := s.G.Repetitions()
	if err != nil {
		return nil, err
	}
	caps := make([]int64, len(s.Channels))
	for i, ch := range s.Channels {
		vol := s.G.TokensPerIteration(rv, ch.Fwd)
		e := &s.G.Edges[ch.Fwd]
		slack := e.Prod.Sum() + e.Cons.Sum() + s.G.Edges[ch.Fwd].Initial
		caps[i] = 8*vol + slack + 8
	}
	return caps, nil
}

// withCapacities returns a copy of the graph with the channels set to the
// given capacities.
func (s *Sizer) withCapacities(caps []int64) *dataflow.Graph {
	g := s.G.Clone()
	for i, ch := range s.Channels {
		g.Edges[ch.Back].Initial = caps[i]
	}
	return g
}

// throughputAt simulates with the given capacities and returns the monitor
// actor's exact rate (zero when deadlocked).
func (s *Sizer) throughputAt(caps []int64) (*big.Rat, error) {
	return s.withCapacities(caps).ThroughputOf(s.Monitor, maxEvents)
}

// feasible reports whether the capacities reach at least the target rate.
func (s *Sizer) feasible(caps []int64, target *big.Rat) (bool, error) {
	th, err := s.throughputAt(caps)
	if err != nil {
		return false, err
	}
	return th.Cmp(target) >= 0, nil
}

// MaxThroughput returns the monitor actor's rate with all channels
// effectively unbounded: the best any finite sizing can achieve.
func (s *Sizer) MaxThroughput() (*big.Rat, error) {
	caps, err := s.relaxed()
	if err != nil {
		return nil, err
	}
	return s.throughputAt(caps)
}

// occupancyBounds runs the relaxed graph and returns, per channel, the peak
// space in use (capacity minus the minimum back-edge token count). A
// capacity equal to the peak space usage lets the producer claim space at
// exactly the times of the relaxed schedule, so the relaxed execution — and
// its throughput — is reproduced; the values are therefore sufficient upper
// bounds for any feasible target.
func (s *Sizer) occupancyBounds() ([]int64, error) {
	relaxedCaps, err := s.relaxed()
	if err != nil {
		return nil, err
	}
	g := s.withCapacities(relaxedCaps)
	res, err := g.Simulate(dataflow.SimOptions{DetectPeriod: true, MaxEvents: maxEvents})
	if err != nil {
		return nil, err
	}
	ub := make([]int64, len(s.Channels))
	for i, ch := range s.Channels {
		ub[i] = relaxedCaps[i] - res.MinTokens[ch.Back]
		if ub[i] < 1 {
			ub[i] = 1
		}
	}
	return ub, nil
}

// minForChannel binary-searches the smallest capacity of channel i reaching
// the target while all other channels are fixed at `others`.
func (s *Sizer) minForChannel(i int, others []int64, ub int64, target *big.Rat) (int64, error) {
	lo, hi := int64(1), ub
	caps := append([]int64(nil), others...)
	caps[i] = hi
	ok, err := s.feasible(caps, target)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrInfeasible
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		caps[i] = mid
		ok, err := s.feasible(caps, target)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// MinCapacitiesForThroughput finds a capacity vector meeting the target
// using iterated per-channel minimisation (a greedy fixpoint). The result
// is component-wise locally minimal: no single channel can shrink further.
// With one channel that is the minimum capacity; with several, a smaller
// total may exist that trades capacity between channels.
func (s *Sizer) MinCapacitiesForThroughput(target *big.Rat) ([]int64, error) {
	ub, err := s.occupancyBounds()
	if err != nil {
		return nil, err
	}
	if ok, err := s.feasible(ub, target); err != nil {
		return nil, err
	} else if !ok {
		return nil, ErrInfeasible
	}
	caps := append([]int64(nil), ub...)
	for pass := 0; pass < len(s.Channels)+2; pass++ {
		changed := false
		for i := range s.Channels {
			m, err := s.minForChannel(i, caps, caps[i], target)
			if err != nil {
				return nil, err
			}
			if m != caps[i] {
				caps[i] = m
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return caps, nil
}

// ClassicalMinCapacity is the textbook single-edge bound: a producer with
// quantum p and a consumer with quantum c need a FIFO of p+c-gcd(p,c)
// tokens for deadlock-free rate-optimal execution. The paper's Fig. 8 table
// equals this bound for p = 5, c = ηs.
func ClassicalMinCapacity(p, c int64) int64 {
	return p + c - gcd(p, c)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
