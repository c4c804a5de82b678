// Package cfifo implements the C-FIFO software FIFO algorithm (Gangwal,
// Nieuwland, Lippens — ISSS'01) used by the paper's processor tiles: a
// circular buffer living in the consumer's local memory, with producer and
// consumer each holding a local copy of the counterpart's counter. The
// producer pushes data words and counter updates through the interconnect
// as posted writes; no hardware flow control is involved, which is exactly
// why an arbitrary number of software FIFOs can coexist between processor
// tiles.
//
// The implementation is a transaction-level model on the dual-ring
// interconnect: data and write-counter updates travel the data ring from
// producer to consumer; read-counter updates travel the data ring from
// consumer to producer (they are ordinary posted writes, not hardware
// credits).
package cfifo

import (
	"fmt"
	"slices"

	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// Config describes one C-FIFO channel.
type Config struct {
	Name string
	// Capacity is the buffer size in words at the consumer tile.
	Capacity int
	// ProducerNode and ConsumerNode are ring attachment indices.
	ProducerNode, ConsumerNode int
	// AckBatch is how many words the consumer reads between read-counter
	// updates (1 = update after every word; larger batches reduce ring
	// traffic at the cost of later space release). Default 1.
	AckBatch int
}

// FIFO is one software FIFO. Producer methods must only be called from the
// producer tile's context and consumer methods from the consumer's; the
// simulation is single-threaded so this is a modelling convention, not a
// synchronisation requirement.
type FIFO struct {
	cfg Config
	k   *sim.Kernel
	net *ring.Dual

	// dataH is the consumer-side binding data and write-counter updates
	// are sent to; ackH the producer-side binding for read-counter updates.
	// They are the only bindings the FIFO installs: a re-point moves them.
	dataH, ackH ring.Handle

	// Producer-side state.
	writeCount uint64 // samples sent (producer local)
	readCopy   uint64 // producer's copy of the consumer's read counter
	spaceSubs  []*sim.Waker

	// Consumer-side state.
	buf             *sim.Queue
	readCount       uint64 // samples consumed (consumer local)
	unacked         int
	ackRetryPending bool
	ackRetryFn      func() // ackRetry, bound once in New
	dataSubs        []*sim.Waker

	// repointing gates the producer while an endpoint moves (chain
	// failover).
	repointing bool

	// Stats.
	AckMessages uint64
}

// New wires a C-FIFO onto the interconnect.
func New(k *sim.Kernel, net *ring.Dual, cfg Config) (*FIFO, error) {
	return NewOn(k, net, cfg, nil)
}

// NewOn is New with the consumer-side buffer built on storage, which must
// hold exactly cfg.Capacity words; nil allocates it. Storage a retired
// FIFO handed back (DetachStorage) serves the next one this way: in the
// paper the buffer is consumer-tile memory that outlives any one stream.
func NewOn(k *sim.Kernel, net *ring.Dual, cfg Config, storage []sim.Word) (*FIFO, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("cfifo %q: capacity must be >= 1", cfg.Name)
	}
	if storage != nil && len(storage) != cfg.Capacity {
		return nil, fmt.Errorf("cfifo %q: storage of %d words for capacity %d", cfg.Name, len(storage), cfg.Capacity)
	}
	if cfg.AckBatch <= 0 {
		cfg.AckBatch = 1
	}
	if cfg.AckBatch > cfg.Capacity {
		return nil, fmt.Errorf("cfifo %q: ack batch %d exceeds capacity %d (space would never return)",
			cfg.Name, cfg.AckBatch, cfg.Capacity)
	}
	f := &FIFO{cfg: cfg, k: k, net: net}
	if storage == nil {
		f.buf = sim.NewQueue(cfg.Name+".buf", cfg.Capacity)
	} else {
		f.buf = sim.NewQueueOn(cfg.Name+".buf", storage)
	}
	f.ackRetryFn = f.ackRetry
	f.bindData(cfg.ConsumerNode)
	f.bindAck(cfg.ProducerNode)
	return f, nil
}

// bindData installs the consumer-side delivery handler on a ring node. Data
// arriving at the consumer tile is guaranteed acceptance — the producer
// never sends beyond the space it observed, so the local buffer cannot
// overflow.
func (f *FIFO) bindData(node int) {
	f.dataH = f.net.Data.Node(node).Bind(func(m ring.Message) {
		if !f.buf.TryPush(m.W) {
			panic(fmt.Sprintf("cfifo %q: buffer overflow — flow-control algorithm violated", f.cfg.Name))
		}
		for _, w := range f.dataSubs {
			w.Wake()
		}
	})
}

// bindAck installs the producer-side read-counter handler on a ring node.
// The counter is absolute and the update monotonic-guarded, so an ack
// arriving at a superseded node (after a repoint) is still applied safely.
func (f *FIFO) bindAck(node int) {
	f.ackH = f.net.Data.Node(node).Bind(func(m ring.Message) {
		if uint64(m.W) > f.readCopy {
			f.readCopy = uint64(m.W)
			for _, w := range f.spaceSubs {
				w.Wake()
			}
		}
	})
}

// Space returns the producer's view of the free space. It is conservative:
// in-flight read-counter updates only increase it.
func (f *FIFO) Space() int {
	return f.cfg.Capacity - int(f.writeCount-f.readCopy)
}

// Len returns the consumer-side buffered word count.
func (f *FIFO) Len() int { return f.buf.Len() }

// TryWrite posts one word from the producer. It reports false when the
// producer's space view is empty, the ring injection buffer is busy, or a
// repoint is in progress (BeginRepoint).
//
//accellint:noalloc guard=TestCFIFOZeroAlloc
func (f *FIFO) TryWrite(w sim.Word) bool {
	if f.repointing {
		return false
	}
	if f.Space() <= 0 {
		return false
	}
	if !f.net.Data.Node(f.cfg.ProducerNode).TrySend(f.dataH, w) {
		return false
	}
	f.writeCount++
	return true
}

// TryRead pops one word at the consumer, sending a read-counter update
// every AckBatch words.
//
//accellint:noalloc guard=TestCFIFOZeroAlloc
func (f *FIFO) TryRead() (sim.Word, bool) {
	w, ok := f.buf.TryPop()
	if !ok {
		return 0, false
	}
	f.readCount++
	f.unacked++
	if f.unacked >= f.cfg.AckBatch {
		f.flushAck()
	}
	return w, true
}

// flushAck posts the current read counter to the producer. If the ring
// rejects the injection a retry is scheduled; space release is therefore
// delayed, never lost (the counter is absolute, not a delta).
func (f *FIFO) flushAck() {
	if f.net.Data.Node(f.cfg.ConsumerNode).TrySend(f.ackH, sim.Word(f.readCount)) {
		f.unacked = 0
		f.AckMessages++
		return
	}
	if !f.ackRetryPending {
		f.ackRetryPending = true
		f.k.Schedule(4, f.ackRetryFn)
	}
}

// ackRetry re-posts the read counter after a ring-busy rejection.
func (f *FIFO) ackRetry() {
	f.ackRetryPending = false
	if f.unacked > 0 {
		f.flushAck()
	}
}

// Ack forces a read-counter update (e.g. at the end of a burst) so space
// returns without waiting for the batch threshold.
func (f *FIFO) Ack() {
	if f.unacked > 0 {
		f.flushAck()
	}
}

// BufferStats reports the consumer-side buffer's traffic counters (total
// pushed and popped words, occupancy high-water mark) for measurement.
func (f *FIFO) BufferStats() (pushed, popped uint64, maxOccupancy int) {
	return f.buf.Pushed, f.buf.Popped, f.buf.MaxOccupancy
}

// SubscribeSpace wakes w when the producer's space view grows.
func (f *FIFO) SubscribeSpace(w *sim.Waker) { f.spaceSubs = append(f.spaceSubs, w) }

// SubscribeData wakes w when a word arrives at the consumer.
func (f *FIFO) SubscribeData(w *sim.Waker) { f.dataSubs = append(f.dataSubs, w) }

// UnsubscribeSpace undoes one SubscribeSpace(w): a consumer that gives the
// stream up (a gateway releasing or exporting its slot) stops being woken by
// its space updates. The other subscribers keep their wake order.
func (f *FIFO) UnsubscribeSpace(w *sim.Waker) { f.spaceSubs = unsubscribe(f.spaceSubs, w) }

// UnsubscribeData undoes one SubscribeData(w).
func (f *FIFO) UnsubscribeData(w *sim.Waker) { f.dataSubs = unsubscribe(f.dataSubs, w) }

func unsubscribe(subs []*sim.Waker, w *sim.Waker) []*sim.Waker {
	if i := slices.Index(subs, w); i >= 0 {
		return slices.Delete(subs, i, i+1)
	}
	return subs
}

// ---------------------------------------------------------------------------
// Endpoint re-pointing (chain failover) and release.
//
// When a gateway pair fails, its streams migrate to the standby pair on the
// same ring: the input FIFO's consumer endpoint and the output FIFO's
// producer endpoint move to the standby's ring nodes. The FIFO object — its
// buffered words and counters — survives unchanged; only the ring routing
// changes. A re-point moves the endpoint's binding to the new node
// (ring.Transport.Move), failing back to an earlier node included. A word
// carries its destination from the send, so words that were in flight
// toward the old node when the endpoint moved still land there, in the
// same handler and the same buffer: they are never lost.
//
// Ordering is the caller's responsibility: between BeginRepoint (which
// gates the producer) and RepointConsumer, every data word in flight on
// the old route must have landed — any settle delay exceeding the
// worst-case ring transit suffices. Without the gate, a word sent to the
// new (closer) node could overtake one still travelling to the old node.
// The ack path needs no gate: read counters are absolute and applied under
// a monotonic guard, so stale-route acks are harmless.
//
// An endpoint that retires for good releases its binding
// (ring.Transport.Release): a word still in flight to it is carried and
// discarded, and the interconnect no longer refers to the FIFO. The
// consumer endpoint retires once every word written has been read
// (Drained), or the words still on the ring are lost with it. Once both
// have retired, the buffer's storage can serve another FIFO
// (DetachStorage, NewOn).
// ---------------------------------------------------------------------------

// BeginRepoint gates the producer: TryWrite reports false until a
// RepointConsumer call completes the move. A periodic source simply retries
// the sample on its next tick (delayed, not dropped — its overflow counter
// only fires on a genuinely full FIFO).
func (f *FIFO) BeginRepoint() { f.repointing = true }

// RepointConsumer moves the consumer endpoint to a new ring node: future
// producer data targets it, and read-counter updates originate from it.
// Clears the BeginRepoint gate and wakes producer-side subscribers.
func (f *FIFO) RepointConsumer(node int) {
	f.net.Data.Move(f.dataH, node)
	f.cfg.ConsumerNode = node
	f.repointing = false
	for _, w := range f.spaceSubs {
		w.Wake()
	}
}

// RepointProducer moves the producer endpoint to a new ring node: future
// TryWrite injections originate from it, and the consumer's read-counter
// updates target it.
func (f *FIFO) RepointProducer(node int) {
	f.net.Data.Move(f.ackH, node)
	f.cfg.ProducerNode = node
	f.repointing = false
	for _, w := range f.dataSubs {
		w.Wake()
	}
}

// Drained reports whether every word written has been read: none is left
// on the interconnect or in the buffer.
func (f *FIFO) Drained() bool { return f.readCount == f.writeCount }

// ReleaseConsumer retires the consumer endpoint's binding, which data and
// write-counter updates arrive through.
func (f *FIFO) ReleaseConsumer() { f.net.Data.Release(f.dataH) }

// ReleaseProducer retires the producer endpoint's binding, which
// read-counter updates arrive through: the producer's space view stops
// growing.
func (f *FIFO) ReleaseProducer() { f.net.Data.Release(f.ackH) }

// DetachStorage hands the consumer-side buffer's storage back for another
// FIFO (NewOn) once the channel has retired: both endpoints released, so no
// word can arrive any more. Words still buffered are discarded, and a push
// into the detached buffer panics rather than write into a successor's.
// A second call returns nil.
func (f *FIFO) DetachStorage() []sim.Word { return f.buf.Detach() }

// Name returns the channel name.
func (f *FIFO) Name() string { return f.cfg.Name }

// Capacity returns the configured buffer size.
func (f *FIFO) Capacity() int { return f.cfg.Capacity }
