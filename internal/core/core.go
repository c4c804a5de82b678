// Package core implements the paper's contribution: temporal analysis and
// block-size computation for stream-processing accelerators shared between
// real-time streams through entry-/exit-gateway pairs.
//
// The package provides, following the paper section by section:
//
//   - the per-stream CSDF model of a gateway pair and its accelerator chain
//     (Fig. 5) and its execution schedule (Fig. 6),
//   - the worst-case block processing time τ̂s (Eq. 2), the round-robin
//     interference bound ε̂s (Eq. 3) and the total block turnaround γs
//     (Eq. 4),
//   - the single-actor SDF abstraction (Fig. 7) with the-earlier-the-better
//     refinement checking,
//   - throughput verification (Eq. 5) and minimum block-size computation
//     (Algorithm 1) as the least fixed point of its monotone operator,
//     iterated exactly from the closed-form relaxation optimum.
//
// Time is measured in clock cycles; stream rates are given in samples per
// second and converted through the system clock.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// Chain describes one chain of accelerators managed by an entry-/exit-
// gateway pair. All costs are in clock cycles per sample.
type Chain struct {
	Name string
	// AccelCosts holds ρA for each accelerator in the chain, in order.
	AccelCosts []uint64
	// EntryCost is ε: the entry-gateway DMA cost of forwarding one sample.
	EntryCost uint64
	// ExitCost is δ: the exit-gateway cost of converting one sample from
	// hardware to software flow control.
	ExitCost uint64
	// NICapacity is the capacity of the network-interface FIFOs between the
	// gateways and accelerators (the paper's α1, α2 = 2 tokens).
	NICapacity int64
}

// C0 is the paper's c0 = max(ε, ρA, δ): the per-sample cost of the slowest
// stage in the gateway/accelerator pipeline (Eq. 2's max term).
func (c *Chain) C0() uint64 {
	m := c.EntryCost
	if c.ExitCost > m {
		m = c.ExitCost
	}
	for _, a := range c.AccelCosts {
		if a > m {
			m = a
		}
	}
	return m
}

// Validate checks the chain parameters.
func (c *Chain) Validate() error {
	if len(c.AccelCosts) == 0 {
		return fmt.Errorf("core: chain %q has no accelerators", c.Name)
	}
	if c.NICapacity < 1 {
		return fmt.Errorf("core: chain %q needs NICapacity >= 1 (paper uses 2)", c.Name)
	}
	return nil
}

// Stream is one data stream multiplexed over a shared chain.
type Stream struct {
	Name string
	// Rate is μs, the required minimum throughput in samples per second.
	Rate *big.Rat
	// Reconfig is Rs, the cycles needed to reconfigure the chain's
	// accelerators (load configuration and restore stream state) before a
	// block of this stream can be processed.
	Reconfig uint64
	// Block is ηs, the number of samples multiplexed per turn. Zero means
	// "to be computed" by ComputeBlockSizes.
	Block int64
	// ProducerBurst is how many samples the producing task writes per
	// firing (default 1). Packetised producers (a software task forwarding
	// chunks) create the gcd-driven buffer-capacity dips of Fig. 8: the
	// input buffer's minimum capacity is non-monotone in ηs whenever
	// ProducerBurst > 1, which is what makes memory-optimal block sizes
	// differ from minimal ones (§V-F).
	ProducerBurst int64
}

// System is a set of streams sharing one chain through one gateway pair,
// with the clock that relates cycle counts to real time.
type System struct {
	Chain   Chain
	Streams []Stream
	// ClockHz is the platform clock frequency (the paper's Virtex 6 design
	// runs the interconnect and gateways at 100 MHz).
	ClockHz int64
}

// Errors.
var (
	ErrNoStreams    = errors.New("core: system has no streams")
	ErrBlockUnknown = errors.New("core: stream block size not set (run ComputeBlockSizes)")
	ErrInfeasible   = errors.New("core: throughput constraints are infeasible (utilisation >= 1)")
)

// Validate checks system parameters (block sizes may still be zero).
func (s *System) Validate() error {
	if err := s.Chain.Validate(); err != nil {
		return err
	}
	if len(s.Streams) == 0 {
		return ErrNoStreams
	}
	if s.ClockHz <= 0 {
		return fmt.Errorf("core: ClockHz must be positive, got %d", s.ClockHz)
	}
	for i := range s.Streams {
		st := &s.Streams[i]
		if st.Rate == nil || st.Rate.Sign() <= 0 {
			return fmt.Errorf("core: stream %q needs a positive rate", st.Name)
		}
		if st.Block < 0 {
			return fmt.Errorf("core: stream %q has negative block size", st.Name)
		}
	}
	return nil
}

// RatePerCycle returns μs expressed in samples per clock cycle.
func (s *System) RatePerCycle(i int) *big.Rat {
	return new(big.Rat).Quo(s.Streams[i].Rate, new(big.Rat).SetInt64(s.ClockHz))
}

// TauHat returns τ̂s (Eq. 2): the worst-case time in cycles to process one
// block of stream i, including reconfiguration and pipeline flush:
//
//	τ̂s = Rs + (ηs + 2) · max(ε, ρA, δ)
//
// The "+2" accounts for flushing the last samples through the accelerator
// and exit gateway after the entry gateway has issued the final sample.
func (s *System) TauHat(i int) (uint64, error) {
	st := &s.Streams[i]
	if st.Block <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrBlockUnknown, st.Name)
	}
	return st.Reconfig + uint64(st.Block+2)*s.Chain.C0(), nil
}

// TauHatCheckpointed returns τ̂s(K) — Eq. 2 adjusted for mid-block
// checkpointing. With the gateway snapshotting engine state every K input
// samples, a block of ηs samples streams as n = ⌈ηs/K⌉ sub-blocks; every
// sub-block ends with a pipeline quiesce (the same "+2"·c0 flush Eq. 2
// charges once at block end) and each of the n−1 interior checkpoints adds
// one snapshot transfer of saveCost cycles on the configuration bus:
//
//	τ̂s(K) = Rs + (ηs + 2·⌈ηs/K⌉)·c0 + (⌈ηs/K⌉−1)·Csave
//
// K must already be rounded to the stream's decimation (the gateway rounds
// up); K ≤ 0 or K ≥ ηs degenerates to the unadjusted TauHat.
func (s *System) TauHatCheckpointed(i int, k int64, saveCost uint64) (uint64, error) {
	st := &s.Streams[i]
	if st.Block <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrBlockUnknown, st.Name)
	}
	if k <= 0 || k >= st.Block {
		return s.TauHat(i)
	}
	n := (st.Block + k - 1) / k
	return st.Reconfig + uint64(st.Block+2*n)*s.Chain.C0() + uint64(n-1)*saveCost, nil
}

// ResumeBound bounds the work one mid-block resume may redo under
// checkpointing every K input samples: the abort-and-reconfigure reload
// (Rs over the configuration bus), at most K replayed samples (the resume
// point is the last checkpoint, never further back), and the sub-block's
// pipeline flush:
//
//	resume ≤ Rs + (K + 2)·c0
//
// This is the term the conservative Eq. 2 envelope must absorb per retry —
// O(K) where full-block replay was O(ηs). K ≤ 0 or K ≥ ηs means no
// checkpointing: the whole block replays (K = ηs).
func (s *System) ResumeBound(i int, k int64) (uint64, error) {
	st := &s.Streams[i]
	if st.Block <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrBlockUnknown, st.Name)
	}
	if k <= 0 || k > st.Block {
		k = st.Block
	}
	return st.Reconfig + uint64(k+2)*s.Chain.C0(), nil
}

// EpsilonHat returns ε̂s (Eq. 3): the worst-case time stream i waits for the
// round-robin arbiter while every other stream's block is processed once.
func (s *System) EpsilonHat(i int) (uint64, error) {
	var sum uint64
	for j := range s.Streams {
		if j == i {
			continue
		}
		t, err := s.TauHat(j)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// GammaHat returns γs (Eq. 4): the maximum time from a block of stream i
// being queued until it has been fully processed — the sum of one block
// turnaround of every stream sharing the chain.
func (s *System) GammaHat(i int) (uint64, error) {
	eps, err := s.EpsilonHat(i)
	if err != nil {
		return 0, err
	}
	tau, err := s.TauHat(i)
	if err != nil {
		return 0, err
	}
	return eps + tau, nil
}

// GuaranteedRate returns the throughput guarantee for stream i implied by
// the SDF abstraction (Eq. 5's left side): ηs / γs in samples per second.
func (s *System) GuaranteedRate(i int) (*big.Rat, error) {
	gamma, err := s.GammaHat(i)
	if err != nil {
		return nil, err
	}
	cycles := new(big.Rat).SetInt64(int64(gamma))
	samples := new(big.Rat).SetInt64(s.Streams[i].Block)
	perCycle := samples.Quo(samples, cycles)
	return perCycle.Mul(perCycle, new(big.Rat).SetInt64(s.ClockHz)), nil
}

// VerifyThroughput checks Eq. 5 for every stream: ηs / γs ≥ μs. It returns
// a nil error when all constraints hold, and a descriptive error naming the
// first violated stream otherwise.
func (s *System) VerifyThroughput() error {
	if err := s.Validate(); err != nil {
		return err
	}
	for i := range s.Streams {
		got, err := s.GuaranteedRate(i)
		if err != nil {
			return err
		}
		if got.Cmp(s.Streams[i].Rate) < 0 {
			g, _ := got.Float64()
			w, _ := s.Streams[i].Rate.Float64()
			return fmt.Errorf("core: stream %q guaranteed %.2f samples/s < required %.2f",
				s.Streams[i].Name, g, w)
		}
	}
	return nil
}

// Utilization returns the fraction of gateway time the streams demand:
// Σ μs · c0 (in samples/cycle · cycles/sample). Feasibility requires the
// rate-dependent part to stay below 1; the reconfiguration overhead then
// determines how large blocks must be. It is computed as (Σ Rate) · c0 /
// ClockHz, the same exact rational with one scaling instead of one per
// stream.
func (s *System) Utilization() *big.Rat {
	u := new(big.Rat)
	if len(s.Streams) == 0 {
		return u
	}
	for i := range s.Streams {
		u.Add(u, s.Streams[i].Rate)
	}
	return u.Mul(u, big.NewRat(int64(s.Chain.C0()), s.ClockHz))
}

// WorstCaseSampleLatency bounds the end-to-end latency of one sample of
// stream i in cycles: from its arrival at the input C-FIFO to its
// availability in the output C-FIFO. The worst-positioned sample is the
// first of a block — it waits for the remaining η-1 samples to arrive
// (at the stream's rate), after which the full block completes within γ̂s:
//
//	L̂ = ⌈(η-1)/μ⌉ + γ̂s   (μ in samples/cycle)
func (s *System) WorstCaseSampleLatency(i int) (uint64, error) {
	gamma, err := s.GammaHat(i)
	if err != nil {
		return 0, err
	}
	fill := new(big.Rat).SetInt64(s.Streams[i].Block - 1)
	wait, ok := ratCeil(fill.Quo(fill, s.RatePerCycle(i)))
	if !ok {
		return 0, fmt.Errorf("core: stream %q block fill time: %w", s.Streams[i].Name, ErrOverflow)
	}
	return uint64(wait) + gamma, nil
}

// InputBufferBound returns a sufficient capacity for stream i's input
// C-FIFO: one full block (which the gateway atomically claims) plus the
// samples the source produces during a worst-case service interval γ̂s.
// With this capacity a periodic source never finds the FIFO full, so no
// real-time sample is dropped.
func (s *System) InputBufferBound(i int) (int64, error) {
	gamma, err := s.GammaHat(i)
	if err != nil {
		return 0, err
	}
	return s.InputBufferBoundOver(i, gamma)
}

// InputBufferBoundOver is InputBufferBound for a caller that already holds
// the service interval γ̂s. By Eq. 4 it is the same for every stream
// (RoundDuration), so a pass over all streams costs O(n) instead of O(n²).
// The arrivals ⌈μs·γ̂s⌉ are computed in fixed width when they fit.
//
//accellint:noalloc guard=TestInputBufferBoundZeroAlloc
func (s *System) InputBufferBoundOver(i int, gamma uint64) (int64, error) {
	st := &s.Streams[i]
	if num, den, ok := rat64(st.Rate); ok && s.ClockHz > 0 && gamma <= math.MaxInt64 {
		if den, ok = mul64(den, uint64(s.ClockHz)); ok {
			if arrivals, ok := mulDivCeil(num, gamma, den); ok && arrivals <= math.MaxInt64 {
				return st.Block + int64(arrivals), nil
			}
		}
	}
	//accellint:alloc arrivals beyond 64 bits are computed as big.Rat
	arrivals, ok := ratCeil(new(big.Rat).Mul(s.RatePerCycle(i), new(big.Rat).SetInt64(int64(gamma))))
	if !ok {
		//accellint:alloc the overflow error names the stream
		return 0, fmt.Errorf("core: stream %q arrivals per service interval: %w", st.Name, ErrOverflow)
	}
	return st.Block + arrivals, nil
}

// OutputBufferBound returns a sufficient capacity for stream i's output
// C-FIFO when its consumer drains at least at the stream's output rate:
// two output blocks (one being written while the previous drains).
func (s *System) OutputBufferBound(i int, decimation int64) (int64, error) {
	if s.Streams[i].Block <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrBlockUnknown, s.Streams[i].Name)
	}
	if decimation < 1 {
		decimation = 1
	}
	return 2 * s.Streams[i].Block / decimation, nil
}

// C1 returns the paper's c1 for Algorithm 1. The paper prints "c1 = Rs",
// but substituting Eq. 4 into Eq. 5 gives c1 = Σ_{i∈S} Ri (the per-rotation
// reconfiguration cost of ALL streams); with the paper's equal Rs values
// the two differ only by the factor |S|, and only the sum makes Eq. 6
// equivalent to Eq. 5. We implement the sum.
func (s *System) C1() uint64 {
	var sum uint64
	for i := range s.Streams {
		sum += s.Streams[i].Reconfig
	}
	return sum
}

// RoundDuration returns Σ τ̂i, the worst-case duration of one full
// round-robin rotation over all streams (equals γs for every s).
func (s *System) RoundDuration() (uint64, error) {
	return s.GammaHat(0)
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{Chain: s.Chain, ClockHz: s.ClockHz}
	c.Chain.AccelCosts = append([]uint64(nil), s.Chain.AccelCosts...)
	c.Streams = make([]Stream, len(s.Streams))
	for i, st := range s.Streams {
		c.Streams[i] = Stream{Name: st.Name, Rate: new(big.Rat).Set(st.Rate), Reconfig: st.Reconfig, Block: st.Block, ProducerBurst: st.ProducerBurst}
	}
	return c
}
