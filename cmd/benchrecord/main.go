// benchrecord runs the repository's benchmarks and records them as a
// BENCH_<stamp>.json baseline, starting the perf trajectory the ROADMAP
// calls for: each optimisation PR re-records and compares against the
// previous snapshot.
//
// Usage:
//
//	go run ./cmd/benchrecord -o BENCH_2026-08.json [-benchtime 100ms] [pkgs...]
//	go run ./cmd/benchrecord -diff [-threshold 10] OLD.json NEW.json
//
// The default benchtime is duration-based rather than a fixed iteration
// count: the ms-scale campaign benches still run about once, while the
// ns-scale kernel benches get enough iterations to amortise cascade bursts
// — a 3-iteration sample of a bursty microbench can be off by several x,
// which would make the -diff gate flaky.
//
// A shared host also runs the same code up to about twice as slowly for
// seconds at a time (its memory system is busy with other tenants), so
// raw ns/op of untouched benchmarks moved past any useful threshold
// between recordings. Each package's test binary is therefore built once
// and each top-level benchmark runs alone, bracketed by reference jobs in
// benchrecord's own process (perfbench's method: allocate one binary tree
// and walk it, which slows with the host as the benchmarks do; here each
// job walks refTrees trees). The recorded figure is
//
//	ns/op × refNominal / (mean CPU time per tree of the two reference jobs),
//
// the benchmark's time at reference speed.
//
// Default packages are the repo root (paper tables/figures), the
// fleet-scale cluster benches, the DSP kernels the PAL accelerators run
// (CORDIC, FIR), the ring transport's per-word benches, the event-kernel
// benches and the solver benches. The output is sorted
// by benchmark name so re-records diff cleanly; -diff compares two
// recorded baselines and exits 1 when any benchmark's ns/op grew by more
// than -threshold percent or its allocs/op by more than one.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type record struct {
	Name     string  `json:"name"`
	Package  string  `json:"package"`
	Iters    int64   `json:"iterations"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op,omitempty"`
	BytesOp  float64 `json:"bytes_per_op,omitempty"`
}

type baseline struct {
	Recorded   string   `json:"recorded"`
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []record `json:"benchmarks"`
}

// benchLine matches `BenchmarkName-8   123   456789 ns/op [... B/op ... allocs/op]`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func main() {
	out := flag.String("o", "", "output file (default BENCH_<yyyy-mm>.json)")
	benchtime := flag.String("benchtime", "100ms", "go test -benchtime value")
	diff := flag.Bool("diff", false, "compare two recorded baselines: -diff OLD.json NEW.json")
	threshold := flag.Float64("threshold", 10, "regression threshold for -diff, in percent ns/op growth")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchrecord: -diff needs exactly two baseline files")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *threshold))
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{".", "./internal/cluster", "./internal/dsp", "./internal/ring", "./internal/sim", "./internal/solve"}
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01"))
	}

	b := baseline{
		Recorded:  time.Now().UTC().Format("2006-01-02"),
		Benchtime: *benchtime,
	}
	for _, pkg := range pkgs {
		recs, meta, err := runPackage(pkg, *benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrecord: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		b.Benchmarks = append(b.Benchmarks, recs...)
		if b.GoOS == "" {
			b.GoOS, b.GoArch, b.CPU = meta[0], meta[1], meta[2]
		}
	}
	sort.Slice(b.Benchmarks, func(i, j int) bool {
		if b.Benchmarks[i].Package != b.Benchmarks[j].Package {
			return b.Benchmarks[i].Package < b.Benchmarks[j].Package
		}
		return b.Benchmarks[i].Name < b.Benchmarks[j].Name
	})

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d benchmarks to %s\n", len(b.Benchmarks), *out)
}

// refNominal is the reference job's CPU time on the machine perfbench
// calibrates against (a 2-vCPU Intel Xeon virtual machine) in its fast
// state, so a recorded ns/op reads as that machine's fast-state time.
const refNominal = 300 * time.Microsecond

// refDepth sizes the reference job's tree: 2^(refDepth+1)-1 nodes of 16
// bytes, 128 KiB at depth 12.
const refDepth = 12

// refTrees is how many trees one reference job builds and walks. One tree
// (0.3-0.8 ms) is too short a sample of the host: scaled by single trees,
// the default set's ns/op varied twice as much between recordings as
// unscaled, and scaled by 32 trees' mean a little less (EXPERIMENTS E28).
const refTrees = 32

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

// refJob builds and walks refTrees reference trees and returns the mean
// CPU time per tree. It collects first, so no collection of earlier trees
// lands inside it.
func refJob() time.Duration {
	runtime.GC()
	c0 := cpuTime()
	for range refTrees {
		if refTree(refDepth).count() != 1<<(refDepth+1)-1 {
			panic("benchrecord: reference job miscounted its tree")
		}
	}
	return (cpuTime() - c0) / refTrees
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchrecord: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPackage builds pkg's test binary once and runs each of its top-level
// benchmarks alone, in the package directory as go test does, scaling
// the benchmark's ns/op (and its sub-benchmarks') by the reference jobs
// on either side.
func runPackage(pkg, benchtime string) ([]record, [3]string, error) {
	var meta [3]string
	golist := exec.Command("go", "list", "-f", "{{.Dir}}", pkg)
	golist.Stderr = os.Stderr
	dirOut, err := golist.Output()
	if err != nil {
		return nil, meta, fmt.Errorf("go list: %w", err)
	}
	tmp, err := os.MkdirTemp("", "benchrecord")
	if err != nil {
		return nil, meta, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "pkg.test")
	if out, err := exec.Command("go", "test", "-c", "-o", bin, pkg).CombinedOutput(); err != nil {
		return nil, meta, fmt.Errorf("%v\n%s", err, out)
	}
	run := func(args ...string) ([]byte, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = strings.TrimSpace(string(dirOut))
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("%v\n%s", err, out)
		}
		return out, nil
	}
	list, err := run("-test.list", "^Benchmark")
	if err != nil {
		return nil, meta, err
	}
	refJob() // the first tree also pays for growing the heap
	var recs []record
	for _, name := range strings.Fields(string(list)) {
		before := refJob()
		out, err := run("-test.run", "^$", "-test.bench", "^"+regexp.QuoteMeta(name)+"$",
			"-test.benchmem", "-test.benchtime", benchtime)
		if err != nil {
			return nil, meta, err
		}
		scale := float64(refNominal) / (float64(before+refJob()) / 2)
		rs, err := parseBench(out, pkg, scale, &meta)
		if err != nil {
			return nil, meta, err
		}
		recs = append(recs, rs...)
	}
	return recs, meta, nil
}

// parseBench reads one benchmark run's output, scaling each ns/op.
func parseBench(out []byte, pkg string, scale float64, meta *[3]string) ([]record, error) {
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			meta[0] = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			meta[1] = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			meta[2] = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := record{Name: m[1], Package: pkg, Iters: iters, NsPerOp: math.Round(ns*scale*100) / 100}
		if m[4] != "" {
			r.BytesOp, _ = strconv.ParseFloat(m[4], 64)
			r.AllocsOp, _ = strconv.ParseFloat(m[5], 64)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
