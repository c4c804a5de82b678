// Package tdm models the baseline interconnect the paper compares against
// (§II): a crossbar with a pre-calculated time-division-multiplex schema in
// the style of PROPHID [9] and the Æthereal-like switch of [13]. Each
// (source, destination) connection owns reserved slots of a global TDM
// wheel; a word injected in its slot traverses the crossbar in a fixed
// number of cycles. Throughput is guaranteed by construction — and so is
// the cost: reservations burn bandwidth whether used or not, and the
// crossbar area grows with the square of the port count, which is exactly
// the argument for the paper's dual ring.
//
// Words are addressed by (destination node, port); the ring-vs-crossbar
// experiment drives this crossbar and internal/ring with identical traffic.
package tdm

import (
	"fmt"

	"accelshare/internal/sim"
)

// Config parameterises a TDM crossbar.
type Config struct {
	// Nodes is the port count.
	Nodes int
	// WheelSlots is the TDM wheel length in cycles.
	WheelSlots int
}

// A word traverses the crossbar in traversalLatency cycles, and each node
// buffers up to injectionDepth words awaiting their slot: the ring-vs-
// crossbar experiment's crossbar, which runs next to a ring of the same
// injection depth.
const (
	traversalLatency sim.Time = 2
	injectionDepth            = 8
)

// Message is one delivered word.
type Message struct {
	Src, Dst int
	Port     int
	W        sim.Word
}

// Crossbar is a slot-scheduled interconnect.
type Crossbar struct {
	cfg Config
	k   *sim.Kernel
	// slotOwner[s] = (src, dst) connection owning wheel slot s; -1 = free.
	slotSrc, slotDst []int
	nodes            []*Node

	// Words counts delivered words; WastedSlots counts reserved slots that
	// passed unused while traffic was pending elsewhere (the TDM
	// inefficiency the paper's RR gateway avoids).
	Words       uint64
	WastedSlots uint64

	walking bool
}

// Node is one crossbar port.
type Node struct {
	x     *Crossbar
	idx   int
	inj   []outMsg
	ports map[int]func(Message)
}

type outMsg struct {
	dst, port int
	w         sim.Word
}

// New builds an empty crossbar; reserve connections with Reserve before
// sending.
func New(k *sim.Kernel, cfg Config) (*Crossbar, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("tdm: need at least one node")
	}
	if cfg.WheelSlots < 1 {
		return nil, fmt.Errorf("tdm: wheel needs at least one slot")
	}
	x := &Crossbar{cfg: cfg, k: k}
	x.slotSrc = make([]int, cfg.WheelSlots)
	x.slotDst = make([]int, cfg.WheelSlots)
	for i := range x.slotSrc {
		x.slotSrc[i], x.slotDst[i] = -1, -1
	}
	for i := 0; i < cfg.Nodes; i++ {
		x.nodes = append(x.nodes, &Node{x: x, idx: i, ports: map[int]func(Message){}})
	}
	return x, nil
}

// Reserve assigns wheel slot s to the (src → dst) connection. Slot tables
// are computed at design time, mirroring the pre-calculated schema of [9].
func (x *Crossbar) Reserve(slot, src, dst int) error {
	if slot < 0 || slot >= x.cfg.WheelSlots {
		return fmt.Errorf("tdm: slot %d out of range", slot)
	}
	if x.slotSrc[slot] != -1 {
		return fmt.Errorf("tdm: slot %d already reserved", slot)
	}
	if src < 0 || src >= x.cfg.Nodes || dst < 0 || dst >= x.cfg.Nodes {
		return fmt.Errorf("tdm: bad endpoints %d->%d", src, dst)
	}
	x.slotSrc[slot] = src
	x.slotDst[slot] = dst
	x.pump()
	return nil
}

// Node returns port i.
func (x *Crossbar) Node(i int) *Node { return x.nodes[i] }

// Bind registers a delivery handler for (node, port).
func (n *Node) Bind(port int, fn func(Message)) {
	if _, dup := n.ports[port]; dup {
		panic(fmt.Sprintf("tdm: node %d port %d bound twice", n.idx, port))
	}
	n.ports[port] = fn
}

// TrySend queues a word for the (n → dst) connection; it departs in the
// connection's next reserved slot. False when the injection buffer is full.
func (n *Node) TrySend(dst, port int, w sim.Word) bool {
	if len(n.inj) >= injectionDepth {
		return false
	}
	n.inj = append(n.inj, outMsg{dst: dst, port: port, w: w})
	n.x.pump()
	return true
}

// pump runs the TDM wheel: one process per crossbar, started lazily when
// traffic is queued and parked again when every injection buffer drains
// (the slot phase is derived from absolute time, so parking preserves the
// schedule).
func (x *Crossbar) pump() {
	if x.walking || !x.anyQueued() {
		return
	}
	x.walking = true
	var tick func()
	tick = func() {
		if !x.anyQueued() {
			x.walking = false
			return
		}
		slot := int(x.k.Now() % uint64(x.cfg.WheelSlots))
		src := x.slotSrc[slot]
		if src >= 0 {
			n := x.nodes[src]
			sent := false
			for i, m := range n.inj {
				if m.dst == x.slotDst[slot] {
					n.inj = append(n.inj[:i], n.inj[i+1:]...)
					x.Words++
					dst := x.nodes[m.dst]
					mm := Message{Src: src, Dst: m.dst, Port: m.port, W: m.w}
					x.k.Schedule(traversalLatency, func() {
						h, ok := dst.ports[mm.Port]
						if !ok {
							panic(fmt.Sprintf("tdm: node %d has no port %d", mm.Dst, mm.Port))
						}
						h(mm)
					})
					sent = true
					break
				}
			}
			if !sent {
				x.WastedSlots++
			}
		}
		x.k.Schedule(1, tick)
	}
	x.k.Schedule(0, tick)
}

func (x *Crossbar) anyQueued() bool {
	for _, n := range x.nodes {
		if len(n.inj) > 0 {
			return true
		}
	}
	return false
}
