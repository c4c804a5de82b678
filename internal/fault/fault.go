// Package fault provides deterministic, schedulable fault injection for
// the simulated MPSoC: a Plan enumerates faults (sample drops, datapath
// corruption, a stuck engine, wedged links or ring NIs, lost pipeline-idle
// notifications), and helpers arm them against the platform's components.
//
// Everything is deterministic: faults trigger on absolute sample indices,
// block numbers or simulated onset times — never on wall clock or
// randomness — so a fault campaign is byte-identical across runs.
//
// The package deliberately does not import the gateway: lost-idle faults
// are delivered through the gateway's plain DropIdle hook (IdleDropper
// returns a compatible closure), which keeps the dependency graph acyclic.
//
// In the recovery ladder this package is the adversary: its faults exercise
// detection (the drain watchdog derived from Eq. 2's flush allowance),
// block retry and checkpointed resume (gateway.Recovery), stream
// quarantine, and whole-chain failover (the Doctor's wedged-chain verdict
// feeding mpsoc.FailoverController). The Engine wrapper's lifetime sample
// counter is deliberately NOT part of SaveState: a transient fault that has
// fired stays fired, so an engine-state snapshot taken at a checkpoint
// never re-arms it and a replay past the fault position processes the same
// inputs cleanly — which is exactly what makes checkpointed retry converge.
package fault

import (
	"fmt"

	"accelshare/internal/accel"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// Kind enumerates the injectable fault types.
type Kind int

// Fault kinds.
const (
	// DropSample makes the targeted engine swallow Count samples starting
	// at absolute sample index Sample — the "sample lost inside an
	// accelerator" fault that breaks the exit gateway's block accounting.
	DropSample Kind = iota
	// CorruptSample XORs Mask into Count input words starting at absolute
	// sample index Sample — a silent data error: throughput and block
	// accounting are unaffected, so the watchdog must NOT fire.
	CorruptSample
	// StickEngine wedges the targeted engine permanently from absolute
	// sample index Sample on: every later sample is swallowed, the block
	// never drains, and retries replay into the same wall — the
	// quarantine-driving fault.
	StickEngine
	// WedgeLink freezes a credit-controlled link (Site indexes the chain:
	// 0 = entry-gateway link, i = the link after tile i-1) at time At for
	// Duration cycles (0 = permanently).
	WedgeLink
	// WedgeNode freezes a ring node's injection side (Site = node index)
	// at time At for Duration cycles (0 = permanently).
	WedgeNode
	// LoseIdle swallows the pipeline-idle notification for the targeted
	// stream's block number Block, Count times (so a retried block's
	// re-notification gets through once the budget is spent).
	LoseIdle
)

func (k Kind) String() string {
	switch k {
	case DropSample:
		return "drop-sample"
	case CorruptSample:
		return "corrupt-sample"
	case StickEngine:
		return "stick-engine"
	case WedgeLink:
		return "wedge-link"
	case WedgeNode:
		return "wedge-node"
	case LoseIdle:
		return "lose-idle"
	}
	return "?"
}

// Fault is one injectable fault. Which fields matter depends on Kind; the
// zero value of the rest is ignored.
type Fault struct {
	Kind Kind
	// Stream targets engine faults and LoseIdle at one stream's engines.
	Stream int
	// Site is the tile index (engine faults), chain-link index (WedgeLink)
	// or ring-node index (WedgeNode).
	Site int
	// Sample is the absolute lifetime sample index (per engine) at which
	// an engine fault first hits. Absolute means retries replay PAST a
	// transient fault: the wrapper's counter is not part of the engine
	// state, so a replayed sample has a new index.
	Sample uint64
	// Count is how many samples (DropSample/CorruptSample) or idle
	// notifications (LoseIdle) are affected; 0 means 1.
	Count int
	// Block is the per-stream block number a LoseIdle fault targets.
	Block uint64
	// At is the simulated onset time of a wedge fault.
	At sim.Time
	// Duration is the wedge length; 0 wedges permanently.
	Duration sim.Time
	// Mask is XORed into corrupted words; 0 means 1 (flip the LSB).
	Mask sim.Word
}

func (f Fault) count() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

func (f Fault) mask() sim.Word {
	if f.Mask == 0 {
		return 1
	}
	return f.Mask
}

// Plan is a deterministic fault schedule for one simulation run.
type Plan struct {
	Faults []Fault
}

// engineFault is one armed engine-level fault with its remaining budget.
type engineFault struct {
	f    Fault
	left int
}

// Engine wraps an inner accel.Engine and applies the plan's engine-level
// faults by absolute sample index. The lifetime counter is deliberately
// excluded from SaveState/LoadState: it is a property of the (faulty)
// hardware datapath, not of the stream's state, so an abort-and-retry
// replays the same words under NEW indices and recovers from transient
// faults — while StickEngine keeps biting and defeats every retry.
type Engine struct {
	Inner accel.Engine

	seen   uint64
	stuck  bool
	faults []*engineFault

	// Dropped counts dropped samples for diagnostics.
	Dropped uint64
}

// Process applies due faults, then delegates to the inner engine.
func (e *Engine) Process(w sim.Word, out []sim.Word) []sim.Word {
	idx := e.seen
	e.seen++
	if e.stuck {
		e.Dropped++
		return out
	}
	for _, af := range e.faults {
		if idx < af.f.Sample {
			continue
		}
		switch af.f.Kind {
		case StickEngine:
			e.stuck = true
			e.Dropped++
			return out
		case DropSample:
			if af.left > 0 {
				af.left--
				e.Dropped++
				return out
			}
		case CorruptSample:
			if af.left > 0 {
				af.left--
				w ^= af.f.mask()
			}
		}
	}
	return e.Inner.Process(w, out)
}

// SaveState appends the inner engine's state only (see type comment).
func (e *Engine) SaveState(dst []uint64) []uint64 { return e.Inner.SaveState(dst) }

// LoadState restores the inner engine only.
func (e *Engine) LoadState(s []uint64) error { return e.Inner.LoadState(s) }

// StateWords reports the inner engine's footprint.
func (e *Engine) StateWords() int { return e.Inner.StateWords() }

// WrapEngines wraps a stream's engine chain with the plan's engine-level
// faults for that stream. Engines without a targeting fault are returned
// unwrapped, so a fault-free stream is bit-identical to a plan-free run, and
// a stream no fault targets gets its own slice back.
func (p *Plan) WrapEngines(stream int, engines []accel.Engine) []accel.Engine {
	var wrapped []accel.Engine
	for site, inner := range engines {
		var afs []*engineFault
		for _, f := range p.Faults {
			switch f.Kind {
			case DropSample, CorruptSample, StickEngine:
				if f.Stream == stream && f.Site == site {
					afs = append(afs, &engineFault{f: f, left: f.count()})
				}
			}
		}
		if len(afs) == 0 {
			continue
		}
		if wrapped == nil {
			wrapped = append([]accel.Engine(nil), engines...)
		}
		wrapped[site] = &Engine{Inner: inner, faults: afs}
	}
	if wrapped == nil {
		return engines
	}
	return wrapped
}

// IdleDropper returns a gateway-compatible DropIdle hook honouring the
// plan's LoseIdle faults, or nil when the plan has none (so a fault-free
// gateway keeps its strict spurious-notification panic).
func (p *Plan) IdleDropper() func(stream int, block uint64) bool {
	var afs []*engineFault
	for _, f := range p.Faults {
		if f.Kind == LoseIdle {
			afs = append(afs, &engineFault{f: f, left: f.count()})
		}
	}
	if len(afs) == 0 {
		return nil
	}
	return func(stream int, block uint64) bool {
		for _, af := range afs {
			if af.f.Stream == stream && af.f.Block == block && af.left > 0 {
				af.left--
				return true
			}
		}
		return false
	}
}

// ArmWedges schedules the plan's wedge faults on the kernel. links is the
// chain's credit-controlled links in order (0 = entry-gateway link, i =
// the link after tile i-1); r is the data ring for WedgeNode faults (may
// be nil when the plan has none).
func (p *Plan) ArmWedges(k *sim.Kernel, links []*accel.Link, r *ring.Ring) error {
	for _, f := range p.Faults {
		f := f
		delay := f.At - k.Now()
		if delay < 0 {
			delay = 0
		}
		switch f.Kind {
		case WedgeLink:
			if f.Site < 0 || f.Site >= len(links) {
				return fmt.Errorf("fault: wedge-link site %d out of range (chain has %d links)", f.Site, len(links))
			}
			l := links[f.Site]
			k.Schedule(delay, func() { l.WedgeFor(f.Duration) })
		case WedgeNode:
			if r == nil {
				return fmt.Errorf("fault: wedge-node fault but no wedgeable ring (cycle-true transport?)")
			}
			if f.Site < 0 || f.Site >= r.Nodes() {
				return fmt.Errorf("fault: wedge-node site %d out of range (%d nodes)", f.Site, r.Nodes())
			}
			node := f.Site
			k.Schedule(delay, func() { r.WedgeNode(node, f.Duration) })
		}
	}
	return nil
}
