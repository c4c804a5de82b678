package accel

import (
	"fmt"

	"accelshare/internal/sim"
)

// Tile is one accelerator tile: an NI input queue fed by an upstream Link,
// a processing engine, and a downstream Link. It processes one word per
// Cost cycles when input is available, and stalls (holding partial output)
// when the downstream link has no credits — exactly the stall behaviour the
// paper's NIs provide.
type Tile struct {
	Name string
	// Cost is ρA, the cycles per consumed sample.
	Cost sim.Time

	k      *sim.Kernel
	in     *sim.Queue
	out    *Link
	engine Engine

	busy    bool
	word    sim.Word   // the sample in service while busy
	pending []sim.Word // produced words awaiting downstream credits
	step    *sim.Waker
	epoch   uint64 // bumped by Abort to cancel in-flight completions
	// serviceDoneFn is serviceDone bound once: every service schedules it
	// with the epoch as its argument.
	serviceDoneFn func(uint64)

	// BusyCycles accumulates processing time for utilisation reporting;
	// Processed counts consumed samples; Aborted counts words discarded by
	// chain flushes.
	BusyCycles uint64
	Processed  uint64
	Aborted    uint64
}

// NewTile builds an accelerator around an NI input queue of the given
// capacity. Wire the input with a Link targeting Tile.In(), then call
// SetDownstream.
func NewTile(name string, k *sim.Kernel, cost sim.Time, niCapacity int) *Tile {
	t := &Tile{Name: name, Cost: cost, k: k}
	t.in = sim.NewQueue(name+".ni", niCapacity)
	t.step = sim.NewWaker(k, t.run)
	t.serviceDoneFn = t.serviceDone
	t.in.SubscribeData(t.step)
	return t
}

// In returns the NI input queue (the destination for the upstream Link).
func (t *Tile) In() *sim.Queue { return t.in }

// SetDownstream attaches the outgoing link.
func (t *Tile) SetDownstream(l *Link) {
	t.out = l
	l.SubscribeCredits(t.step)
	l.SubscribeRingSpace(t.step)
}

// SetEngine installs the active engine (nil detaches — the tile then
// stalls, which is what happens mid-context-switch). Swaps outside a
// configuration-bus transaction are a modelling error, so the tile must be
// idle.
func (t *Tile) SetEngine(e Engine) error {
	if t.busy || len(t.pending) > 0 || t.in.Len() > 0 {
		return fmt.Errorf("accel: %s engine swap while pipeline not idle (busy=%v pending=%d queued=%d)",
			t.Name, t.busy, len(t.pending), t.in.Len())
	}
	t.engine = e
	t.step.Wake()
	return nil
}

// Engine returns the active engine.
func (t *Tile) Engine() Engine { return t.engine }

// Downstream returns the outgoing link (nil before SetDownstream).
func (t *Tile) Downstream() *Link { return t.out }

// Abort discards all in-flight work: the NI queue contents, produced words
// awaiting credits, and the sample currently being processed (its scheduled
// completion becomes a no-op and its output is never produced). The engine's
// state is untouched — Process only runs at completion, so an aborted sample
// never mutated it. Used by the gateway's chain-flush fault recovery.
// Aborted counts the discarded words for diagnostics.
func (t *Tile) Abort() {
	t.epoch++
	if t.busy {
		t.busy = false
		t.Aborted++
	}
	t.Aborted += uint64(len(t.pending) + t.in.Len())
	t.pending = t.pending[:0]
	t.in.Clear()
}

// Idle reports whether the tile holds no in-flight work.
func (t *Tile) Idle() bool { return !t.busy && len(t.pending) == 0 && t.in.Len() == 0 }

// run is the tile's step function.
//
//accellint:noalloc guard=TestDataPathZeroAllocPAL
func (t *Tile) run() {
	// Drain pending outputs first; stall while the link refuses. Sent words
	// are removed in place, so the buffer keeps its backing array.
	n := 0
	for n < len(t.pending) && t.out.TrySend(t.pending[n]) {
		n++
	}
	if n > 0 {
		t.pending = t.pending[:copy(t.pending, t.pending[n:])]
	}
	if len(t.pending) > 0 || t.busy || t.engine == nil {
		return
	}
	w, ok := t.in.TryPop()
	if !ok {
		return
	}
	t.busy = true
	t.word = w
	t.BusyCycles += uint64(t.Cost)
	t.Processed++
	t.k.ScheduleArg(t.Cost, t.serviceDoneFn, t.epoch)
}

// serviceDone completes the service that began at the given epoch: the
// engine processes the word and the tile looks for more work. One sample is
// in service at a time, so the event carries only the epoch and the word
// waits in t.word; the epoch check keeps a completion that Abort cancelled
// from processing the word of a later service.
//
//accellint:noalloc guard=TestDataPathZeroAllocPAL
func (t *Tile) serviceDone(epoch uint64) {
	if t.epoch != epoch {
		return // aborted mid-sample by a chain flush
	}
	t.busy = false
	t.pending = t.engine.Process(t.word, t.pending)
	t.run()
}

// ConfigBus is the dedicated bus the entry gateway uses to save and restore
// accelerator state (paper Fig. 3b / §IV-C). Operations are serialised;
// each moves a number of state words at PerWord cycles plus a fixed Base
// cost.
type ConfigBus struct {
	k        *sim.Kernel
	nextFree sim.Time
	// Base is the fixed per-operation cost in cycles.
	Base sim.Time
	// PerWord is the cycles per state word moved.
	PerWord sim.Time

	// Cycles accumulates total bus occupancy; Ops counts transfers.
	Cycles uint64
	Ops    uint64
}

// NewConfigBus builds a bus with the given costs.
func NewConfigBus(k *sim.Kernel, base, perWord sim.Time) *ConfigBus {
	return &ConfigBus{k: k, Base: base, PerWord: perWord}
}

// Transfer schedules a state movement of the given word count and invokes
// done when it completes. Transfers queue behind each other (single bus).
func (b *ConfigBus) Transfer(words int, done func()) {
	b.TransferCycles(b.Base+sim.Time(words)*b.PerWord, done)
}

// TransferCycles occupies the bus for an explicit duration — used by the
// fixed-Rs reconfiguration model.
func (b *ConfigBus) TransferCycles(cost sim.Time, done func()) {
	b.k.ScheduleAt(b.occupy(cost), done)
}

// TransferCyclesArg is TransferCycles for a handler bound once: done runs
// with arg when the transfer completes, so a per-block transfer allocates
// no closure.
//
//accellint:noalloc guard=TestDataPathZeroAllocPAL
func (b *ConfigBus) TransferCyclesArg(cost sim.Time, done func(uint64), arg uint64) {
	b.k.ScheduleArg(b.occupy(cost)-b.k.Now(), done, arg)
}

// occupy queues a transfer of cost cycles behind the ones already booked and
// returns its completion time.
func (b *ConfigBus) occupy(cost sim.Time) sim.Time {
	start := b.k.Now()
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + cost
	b.Cycles += uint64(cost)
	b.Ops++
	return b.nextFree
}

// BusyUntil returns the time the bus frees up.
func (b *ConfigBus) BusyUntil() sim.Time { return b.nextFree }
