package ring

import (
	"fmt"

	"accelshare/internal/sim"
)

// refRing is the ring as it was before uncontended words skipped their pump
// step: every word waits in the injection buffer for a pump step event,
// which emits it, schedules its delivery and wakes space subscribers. It is
// kept as the test-only reference for FuzzRingMatchesReference and
// TestRingDifferential, which require Ring to show the same accept/refuse
// results, Free readings, per-handle deliveries and space wakes. It
// resolves handles through a map of its own, not through Ring's slab.
type refRing struct {
	cfg   Config
	k     *sim.Kernel
	nodes []*refNode
	binds map[Handle]binding

	Words     uint64
	HopCycles uint64
}

type refNode struct {
	r        *refRing
	idx      int
	inj      []Message
	nextSlot sim.Time
	space    []*sim.Waker
	pumping  bool

	wedgedUntil  sim.Time
	WedgeRejects uint64
}

// newRefRing builds the reference with New's defaults.
func newRefRing(k *sim.Kernel, cfg Config) *refRing {
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 1
	}
	if cfg.SlotPeriod == 0 {
		cfg.SlotPeriod = 1
	}
	if cfg.InjectionDepth == 0 {
		cfg.InjectionDepth = 4
	}
	r := &refRing{cfg: cfg, k: k, binds: map[Handle]binding{}}
	for i := 0; i < cfg.Nodes; i++ {
		r.nodes = append(r.nodes, &refNode{r: r, idx: i})
	}
	return r
}

func (r *refRing) Node(i int) Port { return r.nodes[i] }

func (r *refRing) distance(src, dst int) int {
	n := r.cfg.Nodes
	var d int
	if r.cfg.Direction == Clockwise {
		d = (dst - src) % n
	} else {
		d = (src - dst) % n
	}
	if d < 0 {
		d += n
	}
	if d == 0 && src != dst {
		d = n
	}
	return d
}

func (n *refNode) Bind(fn func(Message)) Handle {
	h := Handle(len(n.r.binds) + 1)
	n.r.binds[h] = binding{dst: n.idx, fn: fn}
	return h
}

func (n *refNode) SubscribeSpace(w *sim.Waker) { n.space = append(n.space, w) }

func (n *refNode) Free() int { return n.r.cfg.InjectionDepth - len(n.inj) }

func (r *refRing) WedgeNode(i int, d sim.Time) {
	n := r.nodes[i]
	if d == 0 {
		n.wedgedUntil = ^sim.Time(0)
		return
	}
	n.wedgedUntil = r.k.Now() + d
	r.k.Schedule(d, func() {
		for _, w := range n.space {
			w.Wake()
		}
		n.pump()
	})
}

func (n *refNode) wedged() bool { return n.wedgedUntil > n.r.k.Now() }

func (n *refNode) TrySend(h Handle, w sim.Word) bool {
	b, ok := n.r.binds[h]
	if !ok {
		panic(fmt.Sprintf("ring: node %d sent to unknown handle %d", n.idx, h))
	}
	if n.wedged() {
		n.WedgeRejects++
		return false
	}
	if len(n.inj) >= n.r.cfg.InjectionDepth {
		return false
	}
	n.inj = append(n.inj, Message{Src: n.idx, Dst: b.dst, H: h, W: w})
	n.pump()
	return true
}

func (n *refNode) pump() {
	if n.pumping || len(n.inj) == 0 {
		return
	}
	start := n.r.k.Now()
	if n.nextSlot > start {
		start = n.nextSlot
	}
	n.pumping = true
	n.r.k.ScheduleAt(start, n.pumpStep)
}

func (n *refNode) pumpStep() {
	n.pumping = false
	if len(n.inj) == 0 || n.wedged() {
		return
	}
	k := n.r.k
	m := n.inj[0]
	n.inj = n.inj[1:]
	n.nextSlot = k.Now() + n.r.cfg.SlotPeriod
	lat := sim.Time(n.r.distance(m.Src, m.Dst)) * n.r.cfg.HopLatency
	n.r.Words++
	n.r.HopCycles += uint64(lat)
	k.Schedule(lat, func() { n.r.binds[m.H].fn(m) })
	for _, w := range n.space {
		w.Wake()
	}
	n.pump()
}
