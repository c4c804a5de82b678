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
// Default packages are the repo root (paper tables/figures), the
// fleet-scale cluster benches, the event-kernel benches and the solver
// benches. The output is sorted
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
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
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
		pkgs = []string{".", "./internal/cluster", "./internal/sim", "./internal/solve"}
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

func runPackage(pkg, benchtime string) ([]record, [3]string, error) {
	var meta [3]string
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchmem",
		"-benchtime", benchtime, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, meta, fmt.Errorf("%v\n%s", err, out)
	}
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
		r := record{Name: m[1], Package: pkg, Iters: iters, NsPerOp: ns}
		if m[4] != "" {
			r.BytesOp, _ = strconv.ParseFloat(m[4], 64)
			r.AllocsOp, _ = strconv.ParseFloat(m[5], 64)
		}
		recs = append(recs, r)
	}
	return recs, meta, sc.Err()
}
