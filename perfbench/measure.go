package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// The measuring host shares its memory system with other tenants. Every
// few seconds it switches between a fast state and one in which
// memory-bound code runs about 1.5-1.9x slower (a pure ALU loop does not
// slow), and a 30-second run can spend most of its time in either state,
// so raw CPU times of the same code varied by up to 70% between runs.
// Every timing is therefore scaled by a reference job that runs between
// measured intervals a few milliseconds long: it allocates one binary
// tree and walks it, which slows with the host state as the simulator
// does. Each interval is reported at reference speed,
//
//	reported = measured × refNominal / (mean CPU time of the reference jobs on either side),
//
// and the intervals are summed. refNominal is the reference job's CPU time
// on the measuring machine (a 2-vCPU Intel Xeon virtual machine) in its
// fast state, so a reported figure reads as that machine's fast-state
// time.
const refNominal = 300 * time.Microsecond

// refDepth sizes the reference job's tree: 2^(refDepth+1)-1 nodes of 16
// bytes, 128 KiB at depth 12.
const refDepth = 12

// pauseEvery is the CPU time after which a solver call ends the open
// interval, so a long run of exact solves is not scaled by one pair of
// reference jobs.
const pauseEvery = 5 * time.Millisecond

type refNode struct{ l, r *refNode }

func refTree(d int) *refNode {
	if d == 0 {
		return &refNode{}
	}
	return &refNode{refTree(d - 1), refTree(d - 1)}
}

func (n *refNode) count() int {
	if n.l == nil {
		return 1
	}
	return 1 + n.l.count() + n.r.count()
}

// refMeter runs reference jobs between the intervals of a measured phase
// and scales each interval to reference speed. It accounts for what the
// jobs cost, so the measured phase can leave it out.
type refMeter struct {
	jobs   int
	jobCPU time.Duration // CPU time of the reference jobs themselves
	// prevJob is the CPU time of the job that opened the current interval.
	prevJob time.Duration
	// measured is the summed length of the intervals; scaled is the same
	// at reference speed, in nanoseconds.
	measured time.Duration
	scaled   float64
	// spentCPU and spentWall cover the jobs with their bookkeeping;
	// mallocs and bytes are the jobs' allocations.
	spentCPU, spentWall time.Duration
	mallocs, bytes      uint64
	// mark is the CPU time at which the open CPU interval began; 0 when
	// no CPU interval is open.
	mark time.Duration
}

// job runs one reference job and returns its CPU time.
func (m *refMeter) job() time.Duration {
	w0, c0 := time.Now(), cpuTime()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	r0 := cpuTime()
	nodes := refTree(refDepth).count()
	r := cpuTime() - r0
	runtime.ReadMemStats(&b)
	if nodes != 1<<(refDepth+1)-1 {
		panic("perfbench: reference job miscounted its tree")
	}
	m.jobs++
	m.jobCPU += r
	m.mallocs += b.Mallocs - a.Mallocs
	m.bytes += b.TotalAlloc - a.TotalAlloc
	m.spentCPU += cpuTime() - c0
	m.spentWall += time.Since(w0)
	return r
}

// open runs the job that opens an interval.
func (m *refMeter) open() { m.prevJob = m.job() }

// interval closes an interval of length d with a reference job and opens
// the next interval.
func (m *refMeter) interval(d time.Duration) { m.add(d, m.job()) }

// add records an interval of length d closed by a reference job of CPU
// time r, scaling d by the mean of r and the job that opened the interval.
func (m *refMeter) add(d, r time.Duration) {
	m.measured += d
	m.scaled += float64(d) * float64(refNominal) / (float64(m.prevJob+r) / 2)
	m.prevJob = r
}

// startCPU opens a CPU interval.
func (m *refMeter) startCPU() {
	m.open()
	m.mark = cpuTime()
}

// pause closes the open CPU interval and opens the next.
func (m *refMeter) pause() {
	m.interval(cpuTime() - m.mark)
	m.mark = cpuTime()
}

// due reports whether the open CPU interval has run pauseEvery.
func (m *refMeter) due() bool { return m.mark != 0 && cpuTime()-m.mark >= pauseEvery }

// slowdown is the reference jobs' mean CPU time over refNominal.
func (m *refMeter) slowdown() float64 {
	return float64(m.jobCPU) / float64(m.jobs) / float64(refNominal)
}

// advance runs a platform from cycle 0 to horizon in steps of seg cycles,
// with pause after each step. start arms the platform and runs the first
// step; later steps run its kernel on. Events fire at the same cycles and
// in the same order as one run to the horizon.
func advance(start func(sim.Time), k *sim.Kernel, horizon, seg sim.Time, pause func()) {
	for t := sim.Time(0); t < horizon; {
		next := min(t+seg, horizon)
		if t == 0 {
			start(next)
		} else {
			k.Run(next)
		}
		t = next
		pause()
	}
}

// repResult is what one rep of a workload measured.
type repResult struct {
	// setupRef measures every set-up of the rep's batches in wall time.
	setupRef refMeter
	// runRef measures every unit's run phase, from the first simulated
	// cycle through its conformance pass, in CPU time. runWall is the
	// same phase's wall time, without the reference jobs.
	runRef         refMeter
	runWall        time.Duration
	cycles         uint64
	mallocs, bytes uint64
	// retained is the largest live heap a unit holds, in bytes: the heap
	// after a forced GC at the end of its run, with the unit reachable,
	// less the heap before its set-up (the benchmark's own bookkeeping).
	retained uint64
	obs      *observation
	tr       *tracer
}

// setupS is the rep's set-up time at reference speed, in seconds: the sum
// over its units of the mean set-up in each unit's batch.
func (r *repResult) setupS() float64 {
	return r.setupRef.scaled / setupBatch / float64(time.Second)
}

// rawSetupS is setupS as measured.
func (r *repResult) rawSetupS() float64 {
	return r.setupRef.measured.Seconds() / setupBatch
}

// cpuNsPerCycle is the rep's run CPU time at reference speed per cycle.
func (r *repResult) cpuNsPerCycle() float64 { return r.runRef.scaled / float64(r.cycles) }

// rawCPUNsPerCycle is cpuNsPerCycle as measured.
func (r *repResult) rawCPUNsPerCycle() float64 { return float64(r.runRef.measured) / float64(r.cycles) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep sets up, runs, checks and observes every unit of one rep. Each
// unit is set up setupBatch times in a row, each set-up an interval of
// the set-up meter, and the last set-up is kept; the others run on an
// uncounted solver, so the counters see one set-up per unit. The run ends
// an interval after every segment, and after a solver call once the open
// interval has run pauseEvery.
func runRep(w workload, traced bool) (*repResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &repResult{obs: newObservation(), tr: tr}
	pause := func() {
		id := tr.begin(spanReference, "")
		res.runRef.pause()
		tr.end(id)
	}
	counts := newSolveCounts()
	sv := &timedSolver{Inner: solve.Default(0, 0), tr: tr, counts: counts, after: func() {
		if res.runRef.due() {
			pause()
		}
	}}
	repID := tr.begin(spanRep, "")
	units := w.units()
	for i, u := range units {
		units[i] = nil // keep only the running unit reachable
		var base, m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&base)
		res.setupRef.open()
		for j := setupBatch - 1; j >= 0; j-- {
			target, str, ssv := u, tr, sv
			if j > 0 {
				target, str = w.units()[i], nil
				ssv = &timedSolver{Inner: solve.Default(0, 0), counts: newSolveCounts()}
			}
			t0 := time.Now()
			id := str.begin(spanSetup, "")
			err := target.setup(str, ssv)
			str.end(id)
			res.setupRef.interval(time.Since(t0))
			if err != nil {
				return nil, err
			}
		}

		spent := res.runRef
		runtime.ReadMemStats(&m0)
		w0 := time.Now()
		id := tr.begin(spanRun, "")
		res.runRef.startCPU()
		err := u.run(tr, pause)
		pause()
		res.runRef.mark = 0
		tr.end(id)
		res.runWall += time.Since(w0) - (res.runRef.spentWall - spent.spentWall)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		res.cycles += u.cycles()
		res.mallocs += m1.Mallocs - m0.Mallocs - (res.runRef.mallocs - spent.mallocs)
		res.bytes += m1.TotalAlloc - m0.TotalAlloc - (res.runRef.bytes - spent.bytes)

		runtime.GC()
		runtime.ReadMemStats(&m1)
		if held := m1.HeapAlloc - base.HeapAlloc; m1.HeapAlloc > base.HeapAlloc && held > res.retained {
			res.retained = held
		}
		if err := u.check(); err != nil {
			return nil, err
		}
		u.observe(res.obs)
	}
	tr.end(repID)
	counts.observe(res.obs)
	res.obs.finish()
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// each returns f of every rep.
func each(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}
