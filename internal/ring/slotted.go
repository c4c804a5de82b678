package ring

// Slotted is the cycle-true model of the dual ring's transport mechanism
// (Dekens et al., DASIP'13): a fixed population of slots circulates around
// the ring, advancing one hop per cycle. A node injects a word into the
// free slot passing its position; the slot carries the word to its
// destination, delivers, and frees. This gives the guaranteed-throughput
// property the paper relies on — a node is never starved longer than one
// slot revolution — at the cost of one simulation event per cycle while
// traffic is in flight.
//
// The transaction-level Ring in this package abstracts exactly this
// behaviour (fixed hop latency, per-node injection rate); Slotted exists to
// validate that abstraction and for experiments that need cycle-true link
// contention. TestSlottedMatchesAbstraction checks the delivery-order and
// latency-bound relationships between the two.

import (
	"fmt"

	"accelshare/internal/sim"
)

// SlottedConfig parameterises a slotted ring.
type SlottedConfig struct {
	Name  string
	Nodes int
	// InjectionDepth is the per-node outbound buffer.
	InjectionDepth int
	// Direction of slot circulation.
	Direction Direction
}

// Slotted is one unidirectional slotted ring (clockwise).
type Slotted struct {
	cfg   Config
	k     *sim.Kernel
	nodes []*SlottedNode

	// slots[i] is the slot currently at position i (between node i and its
	// successor); nil-valued slots are free.
	occupied []bool
	payload  []Message

	running bool
	binds   bindings

	// Delivered counts words; MaxWait tracks the worst injection wait.
	Delivered uint64
	MaxWait   sim.Time
}

// SlottedNode is one attachment point.
type SlottedNode struct {
	r     *Slotted
	idx   int
	inj   []slottedMsg
	space []*sim.Waker
}

type slottedMsg struct {
	m      Message
	queued sim.Time
}

// NewSlotted builds a slotted ring with one slot per hop.
func NewSlotted(k *sim.Kernel, cfg SlottedConfig) (*Slotted, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("ring: slotted ring needs >= 2 nodes")
	}
	if cfg.InjectionDepth == 0 {
		cfg.InjectionDepth = 4
	}
	r := &Slotted{
		k:        k,
		occupied: make([]bool, cfg.Nodes),
		payload:  make([]Message, cfg.Nodes),
	}
	r.cfg.Nodes = cfg.Nodes
	r.cfg.InjectionDepth = cfg.InjectionDepth
	r.cfg.Direction = cfg.Direction
	for i := 0; i < cfg.Nodes; i++ {
		r.nodes = append(r.nodes, &SlottedNode{r: r, idx: i})
	}
	return r, nil
}

// Node returns attachment point i.
func (r *Slotted) Node(i int) Port { return r.nodes[i] }

// Nodes returns the node count.
func (r *Slotted) Nodes() int { return r.cfg.Nodes }

// DeliveredWords counts carried words (Transport interface).
func (r *Slotted) DeliveredWords() uint64 { return r.Delivered }

// Move points the binding h at node (Transport interface).
func (r *Slotted) Move(h Handle, node int) { r.binds[h-1].dst = r.nodes[node].idx }

// Release retires the binding h (Transport interface).
func (r *Slotted) Release(h Handle) { r.binds[h-1].fn = discard }

// Bind registers a delivery handler on this node and returns its handle.
func (n *SlottedNode) Bind(fn func(Message)) Handle { return n.r.binds.add(n.idx, fn) }

// SubscribeSpace wakes w when injection space frees.
func (n *SlottedNode) SubscribeSpace(w *sim.Waker) { n.space = append(n.space, w) }

// Free reports available injection-buffer slots.
func (n *SlottedNode) Free() int { return n.r.cfg.InjectionDepth - len(n.inj) }

// TrySend queues a word for the binding h; false when the buffer is full.
func (n *SlottedNode) TrySend(h Handle, w sim.Word) bool {
	dst := n.r.binds[h-1].dst
	if dst == n.idx {
		panic("ring: slotted self-send")
	}
	if len(n.inj) >= n.r.cfg.InjectionDepth {
		return false
	}
	n.inj = append(n.inj, slottedMsg{
		m:      Message{Src: n.idx, Dst: dst, H: h, W: w},
		queued: n.r.k.Now(),
	})
	n.r.start()
	return true
}

func (r *Slotted) anyWork() bool {
	for _, o := range r.occupied {
		if o {
			return true
		}
	}
	for _, n := range r.nodes {
		if len(n.inj) > 0 {
			return true
		}
	}
	return false
}

// start launches the per-cycle advancement process; it parks when the ring
// drains.
func (r *Slotted) start() {
	if r.running || !r.anyWork() {
		return
	}
	r.running = true
	var tick func()
	tick = func() {
		if !r.anyWork() {
			r.running = false
			return
		}
		r.step()
		r.k.Schedule(1, tick)
	}
	r.k.Schedule(0, tick)
}

// step advances every slot one hop, delivering and injecting.
func (r *Slotted) step() {
	nn := r.cfg.Nodes
	if r.cfg.Direction == Clockwise {
		// Slot at position i moves to (i+1) mod N: rotate backwards so
		// position p holds what was at p-1.
		lastOcc := r.occupied[nn-1]
		lastPay := r.payload[nn-1]
		copy(r.occupied[1:], r.occupied[:nn-1])
		copy(r.payload[1:], r.payload[:nn-1])
		r.occupied[0] = lastOcc
		r.payload[0] = lastPay
	} else {
		// Counter-clockwise: slot at position i moves to (i-1) mod N.
		firstOcc := r.occupied[0]
		firstPay := r.payload[0]
		copy(r.occupied[:nn-1], r.occupied[1:])
		copy(r.payload[:nn-1], r.payload[1:])
		r.occupied[nn-1] = firstOcc
		r.payload[nn-1] = firstPay
	}

	for i := 0; i < nn; i++ {
		// Deliver: the slot at position i has just arrived at node i.
		if r.occupied[i] && r.payload[i].Dst == i {
			m := r.payload[i]
			r.occupied[i] = false
			r.Delivered++
			h := r.binds[m.H-1].fn
			// Deliver as a zero-delay event to keep handler re-entrancy out
			// of the rotation loop.
			r.k.Schedule(0, func() { h(m) })
		}
		// Inject: node i grabs its passing slot when free.
		if !r.occupied[i] && len(r.nodes[i].inj) > 0 {
			sm := r.nodes[i].inj[0]
			r.nodes[i].inj = r.nodes[i].inj[1:]
			r.occupied[i] = true
			r.payload[i] = sm.m
			if wait := r.k.Now() - sm.queued; wait > r.MaxWait {
				r.MaxWait = wait
			}
			for _, w := range r.nodes[i].space {
				w.Wake()
			}
		}
	}
}
