package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

// observation gathers what one rep of a workload produced: the
// deterministic per-layer counters read from public fields, the operation
// accounting, and a digest of the observable outputs. Two reps of the same
// workload and seed must produce equal observations.
type observation struct {
	counts    map[string]float64
	attempted uint64
	failed    uint64
	// admitLatency holds scheduled-arrival → admission delays in cycles.
	admitLatency []uint64
	// shares accumulates numerator/denominator pairs for ratio counters.
	shares map[string][2]float64
	digest hash.Hash
	buf    []byte
}

func newObservation() *observation {
	return &observation{counts: map[string]float64{}, shares: map[string][2]float64{}, digest: sha256.New()}
}

func (o *observation) add(name string, v float64) { o.counts[name] += v }

// slack keeps the smallest bound − measured seen under name.
func (o *observation) slack(name string, bound, measured uint64) {
	var s float64
	if measured > bound {
		s = -float64(measured - bound)
	} else {
		s = float64(bound - measured)
	}
	if cur, ok := o.counts[name]; !ok || s < cur {
		o.counts[name] = s
	}
}

func (o *observation) share(name string, num, den float64) {
	v := o.shares[name]
	o.shares[name] = [2]float64{v[0] + num, v[1] + den}
}

// hash feeds one tagged record into the output digest.
func (o *observation) hash(tag string, fields ...any) {
	b := o.buf[:0]
	b = append(b, tag...)
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = append(b, 0)
			b = append(b, v...)
		case uint64:
			b = binary.LittleEndian.AppendUint64(append(b, 1), v)
		case bool:
			bit := byte(0)
			if v {
				bit = 1
			}
			b = append(b, 2, bit)
		default:
			panic(fmt.Sprintf("perfbench: unhashable %T", f))
		}
	}
	b = append(b, '\n')
	o.digest.Write(b)
	o.buf = b
}

func (o *observation) hashWords(tag, name string, ws []sim.Word) {
	o.hash(tag, name, uint64(len(ws)))
	b := o.buf[:0]
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	o.digest.Write(b)
	o.buf = b
}

func (o *observation) hashInts(tag string, xs []int32) {
	o.hash(tag, uint64(len(xs)))
	b := o.buf[:0]
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	o.digest.Write(b)
	o.buf = b
}

// platform reads the counters every assembled platform keeps: kernel
// events, ring traffic, C-FIFO words, accelerator work, and gateway
// arbitration. C-FIFO words and gateway retries and stalls live on the
// stream's slot, and a slot released for reclaim or rebalance takes them
// with it, so they cover the slots still attached at the end. Block
// counts, which every stream's record keeps, are the caller's.
func (o *observation) platform(k *sim.Kernel, net *ring.Dual, pairs []*gateway.Pair,
	tiles []*accel.Tile, strs []*mpsoc.Stream, cycles uint64) {
	o.add("sim.events", float64(k.Processed))
	o.share("sim.events_per_cycle", float64(k.Processed), float64(cycles))
	o.add("ring.data_words", float64(net.Data.DeliveredWords()))
	o.add("ring.credit_words", float64(net.Credit.DeliveredWords()))
	for _, t := range []ring.Transport{net.Data, net.Credit} {
		if r, ok := t.(*ring.Ring); ok {
			o.add("ring.hop_cycles", float64(r.HopCycles))
		}
	}
	for _, st := range strs {
		if st.GW.Released {
			continue
		}
		for _, f := range []*cfifo.FIFO{st.In, st.Out} {
			pushed, _, peak := f.BufferStats()
			o.add("cfifo.words", float64(pushed))
			if float64(peak) > o.counts["cfifo.peak_fill"] {
				o.counts["cfifo.peak_fill"] = float64(peak)
			}
		}
	}
	for _, t := range tiles {
		o.add("accel.samples", float64(t.Processed))
		o.add("accel.aborted", float64(t.Aborted))
		o.share("accel.busy_share", float64(t.BusyCycles), float64(cycles))
	}
	for _, p := range pairs {
		_, rec, str := p.Busy()
		o.share("gateway.reconfig_share", float64(rec), float64(rec+str))
		for _, s := range p.Snapshot() {
			o.add("gateway.retries", float64(s.Retries))
			o.add("gateway.stalls", float64(s.Stalls))
		}
	}
}

// finish resolves the ratio and percentile counters.
func (o *observation) finish() {
	for name, v := range o.shares {
		if v[1] > 0 {
			o.counts[name] = v[0] / v[1]
		}
	}
	if len(o.admitLatency) > 0 {
		o.counts["cluster.admit_latency_cycles.p50"] = float64(percentile(o.admitLatency, 0.50))
		o.counts["cluster.admit_latency_cycles.p99"] = float64(percentile(o.admitLatency, 0.99))
	}
}

// digestHex is the output digest (64 bits as hex).
func (o *observation) digestHex() string { return hex.EncodeToString(o.digest.Sum(nil)[:8]) }

// diff describes how two observations differ, or returns "" when equal.
func (o *observation) diff(other *observation) string {
	var out []string
	if a, b := o.digestHex(), other.digestHex(); a != b {
		out = append(out, fmt.Sprintf("digest %s != %s", a, b))
	}
	if o.attempted != other.attempted || o.failed != other.failed {
		out = append(out, fmt.Sprintf("operations %d/%d != %d/%d", o.attempted, o.failed, other.attempted, other.failed))
	}
	names := map[string]bool{}
	for n := range o.counts {
		names[n] = true
	}
	for n := range other.counts {
		names[n] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if o.counts[n] != other.counts[n] {
			out = append(out, fmt.Sprintf("%s %v != %v", n, o.counts[n], other.counts[n]))
		}
	}
	return strings.Join(out, "; ")
}

// percentile returns the q-quantile (nearest rank) of xs, which it sorts.
func percentile(xs []uint64, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
