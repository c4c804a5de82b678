// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator through its public packages on one of three workloads,
// checks every output, and prints the benchmark's metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload pal|serve|chaos --seed N --seconds S --trace 0|1
//
// --workload all runs the three in turn in one process and prints one
// such line after each.
//
// pal decodes a fixed span of PAL stereo audio on the §VI-A platform (the
// data path: sim, ring, cfifo, gateway, accel); serve runs the sustained
// fleet-serving campaign (placement, rebalancing, the float solver tier);
// chaos runs several rolling-kill soaks (the degradation ladder and the
// exact ILP tier). Fleet traffic is open-loop in simulated time. Every
// workload runs fixed inputs (see workloads), so --seed is accepted for
// the benchmark's command line and does not change them.
//
// With --trace 0 the run reports the end-to-end metrics: set-up wall time
// and CPU time per simulated cycle, both scaled to the speed of a
// reference job run between measured intervals (see refMeter), the
// allocations per simulated cycle, and the retained heap. With --trace 1
// it reports the per-layer metrics: deterministic work counters read from
// public fields, and self times from spans recorded around every public
// call the benchmark makes, with the tracing overhead measured against
// untraced reps in the same process. Every rep must produce the same
// counters and output digest; a mismatch, a failed output check or a
// digest that differs from the recorded one fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// minReps is the fewest measured reps a run takes, so a median and the
// cross-rep determinism check always have material.
const minReps = 3

// recordedDigests are the output digests each workload must reproduce:
// audio samples and per-stream block counts for pal; every output word,
// block turnaround record, ladder step and fleet event for serve and chaos
// (the fleet event log carries no solver-path labels, so a solver that
// reaches the same plans by another path keeps the digest).
var recordedDigests = map[string]string{
	"pal":   "c7c23adab623c585",
	"serve": "5cf86e286062959f",
	"chaos": "b00931dcd5471fc4",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pal, serve, chaos, or all for the three in turn")
	seed := flag.Uint64("seed", 0, "workload seed (inputs are fixed; recorded only)")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds, per workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	ws := workloads
	var err error
	if *name != "all" {
		var w workload
		w, err = findWorkload(*name)
		ws = []workload{w}
	}
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	correct := true
	for _, w := range ws {
		fmt.Printf("workload %s, seed %d (inputs are fixed)\n", w.name, *seed)
		res, err := measure(w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// measure runs reps of w for about budget and summarises them. A failed
// output check or determinism check returns a result with Correct false.
func measure(w workload, budget time.Duration, traced bool) (*result, error) {
	reps, traces, err := collect(w, budget, traced)
	if err != nil {
		return failed(reps), err
	}
	first := reps[0].obs
	fmt.Printf("%d reps, digest %s, operations %d attempted %d failed\n",
		len(reps), first.digestHex(), first.attempted, first.failed)
	for i, r := range reps {
		fmt.Printf("  rep %d: cpu %.1f ns/cycle (raw %.1f, wall %.1f, %d cycles), set-up %.3f ms (raw %.3f), host slowdown %.2f\n",
			i, r.cpuNsPerCycle(), r.rawCPUNsPerCycle(), float64(r.runWall)/float64(r.cycles), r.cycles,
			r.setupS()*1e3, r.rawSetupS()*1e3, r.runRef.slowdown())
	}
	for i, r := range reps {
		if d := first.diff(r.obs); d != "" {
			return failed(reps), fmt.Errorf("rep %d differs from rep 0: %s", i, d)
		}
	}
	for i, r := range traces {
		if d := first.diff(r.obs); d != "" {
			return failed(reps), fmt.Errorf("traced rep %d differs from untraced rep 0: %s", i, d)
		}
	}
	counters, err := json.Marshal(first.counts)
	if err != nil {
		return failed(reps), err
	}
	fmt.Printf("counters %s\n", counters)
	if want, ok := recordedDigests[w.name]; ok && want != first.digestHex() {
		return failed(reps), fmt.Errorf("output digest %s, recorded %s", first.digestHex(), want)
	}

	res := &result{Correct: true, Attempted: first.attempted, Failed: first.failed, Metrics: map[string]metric{}}
	if !traced {
		res.Metrics["setup_s"] = metric{median(each(reps, (*repResult).setupS)), "s"}
		res.Metrics["cpu_ns_per_cycle"] = metric{median(each(reps, (*repResult).cpuNsPerCycle)), "ns/cycle"}
		res.Metrics["allocs_per_cycle"] = metric{median(each(reps, func(r *repResult) float64 { return float64(r.mallocs) / float64(r.cycles) })), "allocs/cycle"}
		res.Metrics["alloc_bytes_per_cycle"] = metric{median(each(reps, func(r *repResult) float64 { return float64(r.bytes) / float64(r.cycles) })), "B/cycle"}
		res.Metrics["retained_heap_mb"] = metric{median(each(reps, func(r *repResult) float64 { return float64(r.retained) / (1 << 20) })), "MiB"}
		return res, nil
	}

	path := filepath.Join(".bench_build", "perfbench", w.name+"-trace.jsonl")
	if err := traces[len(traces)-1].tr.write(path); err != nil {
		return failed(reps), err
	}
	fmt.Printf("%d traced reps; spans of the last one written to %s\n", len(traces), path)
	for _, m := range layerMetrics {
		v := first.counts[m.name]
		switch span, ok := selfTimeMetrics[m.name]; {
		case ok:
			v = median(each(traces, func(r *repResult) float64 { return selfTimes(r.tr.spans)[span].Seconds() }))
		case m.name == "trace.overhead_ratio":
			ratios := make([]float64, len(traces))
			for i, r := range traces {
				ratios[i] = r.cpuNsPerCycle() / reps[i].cpuNsPerCycle()
			}
			v = median(ratios)
		case m.name == "run.raw_cpu_ns_per_cycle":
			v = median(each(reps, (*repResult).rawCPUNsPerCycle))
		case m.name == "run.wall_ns_per_cycle":
			v = median(each(reps, func(r *repResult) float64 { return float64(r.runWall) / float64(r.cycles) }))
		case m.name == "host.slowdown":
			v = median(each(reps, func(r *repResult) float64 { return r.runRef.slowdown() }))
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// collect runs untraced reps until budget has passed, and at least
// minReps of them. A traced run follows every untraced rep with a traced
// one, so the overhead ratio compares reps that ran side by side.
func collect(w workload, budget time.Duration, traced bool) (reps, traces []*repResult, err error) {
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		r, err := runRep(w, false)
		if err != nil {
			return reps, nil, err
		}
		reps = append(reps, r)
		if traced {
			r, err := runRep(w, true)
			if err != nil {
				return reps, nil, err
			}
			traces = append(traces, r)
		}
	}
	return reps, traces, nil
}

// failed is the result of a run whose checks did not pass.
func failed(reps []*repResult) *result {
	r := &result{Correct: false, Attempted: 1, Metrics: map[string]metric{}}
	if len(reps) > 0 {
		r.Attempted, r.Failed = reps[0].obs.attempted, reps[0].obs.failed
	}
	return r
}
