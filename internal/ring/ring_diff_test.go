package ring

import (
	"testing"

	"accelshare/internal/sim"
)

// Differential harness: Ring and the pump-every-word reference (refRing)
// run the same script on kernels of their own and must show the same
// accept/refuse results, Free readings, space wakes, per-handle
// deliveries, Words, HopCycles and wedge rejects. A script is a chain of
// ops, each firing delay cycles after the previous one. An "early" op
// schedules its successor before acting, so a delay-0 successor fires
// ahead of the pump step the op's first send would schedule (inside a held
// word's window); otherwise the successor fires after it. Every node has a
// sender that queues the words an op gives it, sends until refused, and
// retries on space wakes taken through a When(waiting) gate, as the
// platform's senders do. A polite sender reads Free before each word and
// waits for a space wake when it reads 0 instead of sending. Only the order
// of same-cycle events of different kinds may differ between the rings, so
// deliveries are compared per handle. Each harness binds ringBindings handlers
// on every node in the same order and keeps the handles its ring issued, so
// a delivery is matched to the binding it reached through each ring's own
// lookup.

// ringUnderTest is the surface the harness drives on both rings.
type ringUnderTest interface {
	Node(i int) Port
	WedgeNode(i int, d sim.Time)
}

const (
	opSend = iota
	opFree
	opWedge
)

type ringOp struct {
	kind      int
	node, dst int
	binding   int
	words     int
	polite    bool
	delay     sim.Time
	early     bool
	wedge     sim.Time // 0 = permanent
}

// ringScript is one ring geometry and an op chain.
type ringScript struct {
	cfg Config
	ops []ringOp
}

// ringRecord is one observation in firing order: a send result ('s', v 1 =
// accepted), a Free reading ('f') or a space wake ('w').
type ringRecord struct {
	at   sim.Time
	kind byte
	node int
	v    int
}

type ringDelivery struct {
	at  sim.Time
	src int
	w   sim.Word
}

type ringHarness struct {
	k          *sim.Kernel
	r          ringUnderTest
	ops        []ringOp
	i          int
	word       sim.Word
	log        []ringRecord
	handles    [][ringBindings]Handle
	deliveries map[Handle][]ringDelivery
	// misrouted counts deliveries whose message names another handle or
	// node than the binding that received it.
	misrouted int
	senders   []*ringSender
}

type ringSender struct {
	d       *ringHarness
	node    int
	backlog []Message
	polite  bool
	waiting bool
}

const ringBindings = 2

func newRingHarness(k *sim.Kernel, r ringUnderTest, sc ringScript) *ringHarness {
	d := &ringHarness{k: k, r: r, ops: sc.ops, deliveries: map[Handle][]ringDelivery{}}
	d.handles = make([][ringBindings]Handle, sc.cfg.Nodes)
	for n := 0; n < sc.cfg.Nodes; n++ {
		for p := 0; p < ringBindings; p++ {
			var h Handle
			h = r.Node(n).Bind(func(m Message) {
				if m.H != h || m.Dst != n {
					d.misrouted++
				}
				d.deliveries[h] = append(d.deliveries[h], ringDelivery{k.Now(), m.Src, m.W})
			})
			d.handles[n][p] = h
		}
		s := &ringSender{d: d, node: n}
		w := sim.NewWaker(k, func() {
			d.record('w', s.node, 0)
			s.try()
		})
		r.Node(n).SubscribeSpace(w.When(func() bool { return s.waiting }))
		d.senders = append(d.senders, s)
	}
	return d
}

func (d *ringHarness) record(kind byte, node, v int) {
	d.log = append(d.log, ringRecord{d.k.Now(), kind, node, v})
}

// try sends the backlog until the ring refuses a word, or a polite
// sender reads no free space.
func (s *ringSender) try() {
	p := s.d.r.Node(s.node)
	for len(s.backlog) > 0 {
		if s.polite {
			slots := free(p)
			s.d.record('f', s.node, slots)
			if slots == 0 {
				s.waiting = true
				return
			}
		}
		m := s.backlog[0]
		ok := p.TrySend(m.H, m.W)
		if !ok {
			s.d.record('s', s.node, 0)
			s.waiting = true
			return
		}
		s.d.record('s', s.node, 1)
		s.waiting = false
		s.backlog = s.backlog[1:]
	}
}

// step runs the next op and chains its successor.
func (d *ringHarness) step() {
	op := d.ops[d.i]
	d.i++
	if op.early {
		d.chain()
	}
	switch op.kind {
	case opSend:
		s := d.senders[op.node]
		s.polite = op.polite
		for j := 0; j < op.words; j++ {
			d.word++
			s.backlog = append(s.backlog, Message{H: d.handles[op.dst][op.binding], W: d.word})
		}
		s.try()
	case opFree:
		d.record('f', op.node, free(d.r.Node(op.node)))
	case opWedge:
		d.r.WedgeNode(op.node, op.wedge)
	}
	if !op.early {
		d.chain()
	}
}

func (d *ringHarness) chain() {
	if d.i < len(d.ops) {
		d.k.Schedule(d.ops[d.i].delay, d.step)
	}
}

var ringDelays = [8]sim.Time{0, 0, 0, 1, 1, 2, 3, 5}

// decodeRingScript turns bytes into a script: one geometry byte (2–5
// nodes, injection depth 1–4, hop latency 1–2), then three bytes per op.
func decodeRingScript(data []byte) (ringScript, bool) {
	if len(data) < 4 {
		return ringScript{}, false
	}
	g := data[0]
	cfg := Config{
		Nodes:          2 + int(g%4),
		InjectionDepth: 1 + int(g>>2%4),
		HopLatency:     1 + sim.Time(g>>6%2),
	}
	sc := ringScript{cfg: cfg}
	for i := 1; i+2 < len(data) && len(sc.ops) < 400; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		op := ringOp{
			node:    int(b1) % cfg.Nodes,
			dst:     int(b1>>4) % cfg.Nodes,
			binding: int(b2) % ringBindings,
			delay:   ringDelays[b0>>3&7],
			early:   b0&0x80 != 0,
		}
		switch b0 % 8 {
		case 0, 1, 2:
			op.kind, op.words = opSend, 1+int(b2>>4%4)
		case 3:
			op.kind, op.words, op.polite = opSend, 1+int(b2>>4%4), true
		case 4:
			op.kind, op.words = opSend, 1+int(b2>>1%8)
		case 5, 6:
			op.kind = opFree
		case 7:
			op.kind = opWedge
			if b2 != 0xff {
				op.wedge = 1 + sim.Time(b2%12)
			}
		}
		sc.ops = append(sc.ops, op)
	}
	return sc, len(sc.ops) > 0
}

// runRingScript runs sc on Ring and on refRing and compares them.
func runRingScript(t *testing.T, sc ringScript) {
	t.Helper()
	kg, kr := sim.NewKernel(), sim.NewKernel()
	r, err := New(kg, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefRing(kr, sc.cfg)
	got, want := newRingHarness(kg, r, sc), newRingHarness(kr, ref, sc)
	kg.Schedule(sc.ops[0].delay, got.step)
	kr.Schedule(sc.ops[0].delay, want.step)
	kg.RunAll()
	kr.RunAll()

	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("%+v: observation %d: ring %+v, reference %+v", sc.cfg, i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("%+v: %d observations, reference %d", sc.cfg, len(got.log), len(want.log))
	}
	if got.misrouted != 0 || want.misrouted != 0 {
		t.Fatalf("%+v: %d misrouted deliveries, reference %d", sc.cfg, got.misrouted, want.misrouted)
	}
	for n := 0; n < sc.cfg.Nodes; n++ {
		for p := 0; p < ringBindings; p++ {
			g, w := got.deliveries[got.handles[n][p]], want.deliveries[want.handles[n][p]]
			if len(g) != len(w) {
				t.Fatalf("%+v: node %d binding %d: %d deliveries, reference %d", sc.cfg, n, p, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("%+v: node %d binding %d delivery %d: ring %+v, reference %+v", sc.cfg, n, p, i, g[i], w[i])
				}
			}
		}
		if g, w := r.nodes[n].WedgeRejects, ref.nodes[n].WedgeRejects; g != w {
			t.Fatalf("%+v: node %d: %d wedge rejects, reference %d", sc.cfg, n, g, w)
		}
	}
	if r.Words != ref.Words || r.HopCycles != ref.HopCycles {
		t.Fatalf("%+v: Words/HopCycles %d/%d, reference %d/%d", sc.cfg, r.Words, r.HopCycles, ref.Words, ref.HopCycles)
	}
}

// FuzzRingMatchesReference decodes bytes into a ring geometry and an op
// script (decodeRingScript) and requires Ring to match refRing on it.
func FuzzRingMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x80, 0x01, 0x10, 0x05, 0x00, 0x00})                   // depth 1: a refused send inside a held word's window
	f.Add([]byte{0x05, 0x80, 0x01, 0x20, 0x80, 0x01, 0x00, 0x06, 0x00, 0x00})                   // depth 2: a second word buffered behind a held one
	f.Add([]byte{0x16, 0x80, 0x01, 0x00, 0x87, 0x00, 0x05, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00}) // a wedge inside the window
	f.Add([]byte{0x2b, 0x84, 0x21, 0x70, 0x07, 0x02, 0xff, 0x00, 0x12, 0x31, 0x18, 0x21, 0x00}) // a permanent wedge
	f.Add([]byte{0x7f, 0x04, 0x13, 0x7e, 0x84, 0x31, 0x3c, 0x8d, 0x02, 0x00, 0x16, 0x20, 0x11}) // deep buffer, bursts
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1201 {
			data = data[:1201]
		}
		sc, ok := decodeRingScript(data)
		if !ok {
			return
		}
		runRingScript(t, sc)
	})
}

// TestRingDifferential runs seeded random scripts through the same
// comparison as FuzzRingMatchesReference.
func TestRingDifferential(t *testing.T) {
	seeds, ops := 300, 150
	if testing.Short() {
		seeds = 60
	}
	for s := 0; s < seeds; s++ {
		x := uint64(s)*0x9e3779b97f4a7c15 + 1
		data := make([]byte, 1+3*ops)
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x >> 24)
		}
		sc, _ := decodeRingScript(data)
		runRingScript(t, sc)
	}
}
