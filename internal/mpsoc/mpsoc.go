// Package mpsoc assembles the full simulated platform of the paper's
// Fig. 1: processor tiles, accelerator tiles and an entry-/exit-gateway
// pair on the dual-ring interconnect. It provides periodic source tasks
// (the radio front-end), sink tasks (audio output), and measurement of the
// quantities the evaluation section reports: throughput, block turnaround
// versus the γs bound, gateway duty cycle and accelerator utilisation.
//
// It is also where the recovery ladder becomes a platform property.
// ChainSpec.Recovery/DrainTimeout wire per-stream watchdog retry, checkpointed
// resume and quarantine into every assembled chain, and BuildMulti +
// FailoverController (failover.go) add the top rung: a fault doctor's
// wedged-chain verdict freezes the sick gateway pair, exports every
// stream's state — including the ≤ K-word replay residue and committed
// output watermark of a checkpointed in-flight block — re-points the
// C-FIFOs and resumes on a standby pair. The measured freeze→resume cost is
// checked against the bound max τ̂s + slots·bus-cost, where τ̂s is the
// adjusted Eq. 2 term τ̂s(K) when the primary checkpoints, and the survivor
// re-solve (Algorithm 1, warm-started) onto a standby of different timing
// must never shrink a block below its migrated residue's resume point.
package mpsoc

import (
	"fmt"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// AccelSpec describes one shared accelerator tile.
type AccelSpec struct {
	Name string
	// Cost is ρA in cycles per sample.
	Cost sim.Time
	// NICapacity is the NI FIFO depth (the paper's α1/α2 = 2; 0 means 2).
	NICapacity int
}

// niDepth is the tile's NI FIFO depth as built.
func (as AccelSpec) niDepth() int {
	if as.NICapacity == 0 {
		return 2
	}
	return as.NICapacity
}

// StreamSpec describes one stream multiplexed over the chain.
type StreamSpec struct {
	Name string
	// Block is ηs (input samples per turn); it must be a multiple of
	// Decimation, the chain's total down-sampling factor, so the exit
	// gateway sees exactly Block/Decimation samples per block.
	Block      int64
	Decimation int64
	// Reconfig is Rs in cycles.
	Reconfig sim.Time
	// InCapacity/OutCapacity size the input and output C-FIFOs in samples.
	InCapacity, OutCapacity int
	// Engines holds one engine per accelerator tile, in chain order.
	Engines []accel.Engine
	// SourcePeriod is the cycles between samples offered by the source task
	// (0 = offer as fast as the FIFO accepts). Source generates sample n.
	SourcePeriod sim.Time
	// SourcePeriodNum/Den, when Den != 0, give a rational sample period in
	// cycles (Num/Den); the source task Bresenham-accumulates so the
	// long-run rate is exact even when the platform clock is not an integer
	// multiple of the sample rate. Overrides SourcePeriod.
	SourcePeriodNum, SourcePeriodDen uint64
	Source                           func(n uint64) sim.Word
	// TotalInputs stops the source after that many samples (0 = endless).
	TotalInputs uint64
	// SinkPeriod is the cycles between sink reads (0 = drain eagerly).
	SinkPeriod sim.Time
	// CollectOutputs stores every output word for functional checks.
	CollectOutputs bool
	// RecordInputTimes stores the instant each source sample entered the
	// input C-FIFO (for per-sample latency measurements).
	RecordInputTimes bool
	// ExternalSource suppresses the built-in source task: the application
	// writes the input C-FIFO itself (e.g. a forwarder chaining two stages).
	ExternalSource bool
	// ExternalSink suppresses the built-in sink task likewise.
	ExternalSink bool
	// StartSuspended registers the gateway slot suspended (excluded from
	// arbitration) so an admission controller can activate it atomically
	// with the survivors' new block sizes in one ApplySlots transaction.
	StartSuspended bool
}

// Stream is the runtime state of one stream.
type Stream struct {
	Spec StreamSpec
	GW   *gateway.Stream
	In   *cfifo.FIFO
	Out  *cfifo.FIFO

	Outputs []sim.Word

	produced  uint64
	collected uint64
	// Overflows counts source samples that found the input FIFO full — a
	// real-time violation if it ever exceeds zero.
	Overflows uint64
	// FirstOutputAt / LastOutputAt bracket the sink's observations.
	FirstOutputAt, LastOutputAt sim.Time
	// InTimes records source-sample entry instants (RecordInputTimes).
	InTimes []sim.Time

	// sourceGen invalidates the running source task's tick loop: each
	// StopSource/restart bumps it, so a pending tick of a superseded loop
	// exits instead of racing a freshly started one.
	sourceGen int

	// ringHome/ringNodes remember the reserved (source, sink) ring-node
	// pair AttachStream consumed, so ReclaimStream can return it to the
	// home chain's pool when the stream departs for good. Every C-FIFO
	// binding gets a fresh ring handle, so a recycled node pair never
	// collides with the departed stream's idle sink. reclaimable is false
	// for streams built with the platform (their attachment points were
	// never in the reserved pool).
	ringHome    int
	ringNodes   [2]int
	reclaimable bool
}

// StopSource makes the stream's built-in source task exit at its next tick,
// so a removed stream stops feeding its input C-FIFO. StartSource on the
// owning MultiSystem restarts it.
func (st *Stream) StopSource() { st.sourceGen++ }

// System is the single-chain view of a platform that Build assembled: the
// kernel and ring of the MultiSystem and its one Chain.
type System struct {
	*MultiSystem
	*Chain
}

// Build assembles a platform of exactly one chain (BuildMulti assembles
// several gateway pairs on one ring, Fig. 1).
func Build(cfg MultiConfig) (*System, error) {
	if len(cfg.Chains) != 1 {
		return nil, fmt.Errorf("mpsoc: Build takes exactly one chain, got %d", len(cfg.Chains))
	}
	ms, err := BuildMulti(cfg)
	if err != nil {
		return nil, err
	}
	return &System{MultiSystem: ms, Chain: ms.Chains[0]}, nil
}

// ackBatch picks a read-counter update granularity for the gateway input
// FIFO: frequent enough that space returns well within a block period.
func ackBatch(capacity int) int {
	b := capacity / 8
	if b < 1 {
		b = 1
	}
	return b
}

// startSourceTask runs the periodic producer task for a stream.
func startSourceTask(k *sim.Kernel, st *Stream) {
	gen := st.Spec.Source
	if gen == nil {
		gen = func(n uint64) sim.Word { return sim.Word(n) }
	}
	num, den := st.Spec.SourcePeriodNum, st.Spec.SourcePeriodDen
	if den == 0 {
		num, den = uint64(st.Spec.SourcePeriod), 1
	}
	periodic := num > 0
	var acc uint64 // Bresenham remainder accumulator (units of 1/den cycles)
	nextDelay := func() sim.Time {
		if !periodic {
			return 1
		}
		acc += num
		d := acc / den
		acc %= den
		return sim.Time(d)
	}
	var tick func()
	taskGen := st.sourceGen
	tick = func() {
		if st.sourceGen != taskGen {
			return
		}
		if st.Spec.TotalInputs > 0 && st.produced >= st.Spec.TotalInputs {
			return
		}
		if st.In.TryWrite(gen(st.produced)) {
			if st.Spec.RecordInputTimes {
				st.InTimes = append(st.InTimes, k.Now())
			}
			st.produced++
		} else if st.In.Space() <= 0 && periodic {
			// A periodic front-end cannot stall: a full FIFO means a missed
			// real-time deadline. Drop the sample and count it.
			st.Overflows++
			st.produced++
		}
		k.Schedule(nextDelay(), tick)
	}
	k.Schedule(0, tick)
}

// startSinkTask runs the consumer task for a stream.
func startSinkTask(k *sim.Kernel, st *Stream) {
	period := st.Spec.SinkPeriod
	var tick func()
	tick = func() {
		for {
			w, ok := st.Out.TryRead()
			if !ok {
				break
			}
			if st.collected == 0 {
				st.FirstOutputAt = k.Now()
			}
			st.LastOutputAt = k.Now()
			st.collected++
			if st.Spec.CollectOutputs {
				st.Outputs = append(st.Outputs, w)
			}
			if period > 0 {
				break // one sample per period
			}
		}
		if period > 0 {
			k.Schedule(period, tick)
		}
	}
	if period > 0 {
		k.Schedule(0, tick)
	} else {
		w := sim.NewWaker(k, tick)
		st.Out.SubscribeData(w)
	}
}

// Report summarises the measurements the evaluation needs.
type Report struct {
	Cycles          uint64
	ReconfigCycles  uint64
	StreamingCycles uint64
	// StreamingShare and ReconfigShare are fractions of busy (non-idle)
	// gateway time.
	StreamingShare, ReconfigShare float64
	PerStream                     []StreamReport
	TileBusy                      []float64 // per accelerator utilisation
}

// StreamReport is the per-stream slice of a Report.
type StreamReport struct {
	Name          string
	Blocks        uint64
	SamplesIn     uint64
	SamplesOut    uint64
	Overflows     uint64
	MaxTurnaround sim.Time
	// PendingWait is how long an eligible block has been waiting unserved
	// at the end of the run (starvation indicator).
	PendingWait sim.Time
	// OutputRate is samples per cycle over the observation window.
	OutputRate float64
	// Stalls/Retries count watchdog firings and block replays attributed
	// to this stream; Quarantined (at QuarantinedAt) means the stream was
	// removed from arbitration after exhausting its retry budget.
	Stalls        uint64
	Retries       uint64
	Quarantined   bool
	QuarantinedAt sim.Time
}

// Report collects the chain's measurements after Run.
func (s *System) Report() Report { return chainReport(s.K, s.Chain) }
