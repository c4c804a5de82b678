package main

// The -diff mode: compare two recorded baselines mechanically, so an
// optimisation PR's claim ("re-recorded, nothing regressed") is a command
// with an exit code instead of a prose assertion. A regression is a ns/op
// increase beyond the threshold percentage, or an allocs/op increase of
// more than allocSlack; improvements and new/removed benchmarks are
// reported but never fail the diff.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// allocSlack is the allocs/op growth the diff tolerates. Allocation counts
// are nearly deterministic — repeated records agree within ±1 per op while
// ns/op moves by tens of percent on a shared host — so the allocation gate
// is absolute and tight where the timing gate must be loose.
const allocSlack = 1

// benchKey identifies one benchmark across baselines.
type benchKey struct {
	Package string
	Name    string
}

// loadBaseline reads a BENCH_*.json file written by this tool.
func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// diffBaselines prints a per-benchmark delta table to w and returns the
// number of regressions: benchmarks whose ns/op grew by more than
// thresholdPct percent or whose allocs/op grew by more than allocSlack.
func diffBaselines(w io.Writer, oldB, newB *baseline, thresholdPct float64) int {
	oldBy := make(map[benchKey]record, len(oldB.Benchmarks))
	for _, r := range oldB.Benchmarks {
		oldBy[benchKey{r.Package, r.Name}] = r
	}
	newBy := make(map[benchKey]record, len(newB.Benchmarks))
	for _, r := range newB.Benchmarks {
		newBy[benchKey{r.Package, r.Name}] = r
	}

	var keys []benchKey
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, seen := oldBy[k]; !seen {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Package != keys[j].Package {
			return keys[i].Package < keys[j].Package
		}
		return keys[i].Name < keys[j].Name
	})

	fmt.Fprintf(w, "%-52s %14s %14s %9s %12s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	regressions := 0
	for _, k := range keys {
		label := k.Package + " " + k.Name
		o, hasOld := oldBy[k]
		n, hasNew := newBy[k]
		switch {
		case !hasNew:
			fmt.Fprintf(w, "%-52s %14.1f %14s %9s %12.0f %12s\n", label, o.NsPerOp, "-", "removed", o.AllocsOp, "-")
		case !hasOld:
			fmt.Fprintf(w, "%-52s %14s %14.1f %9s %12s %12.0f\n", label, "-", n.NsPerOp, "added", "-", n.AllocsOp)
		default:
			pct := 0.0
			if o.NsPerOp > 0 {
				pct = (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
			}
			mark := ""
			if pct > thresholdPct {
				mark += "  REGRESSION ns/op"
			}
			if n.AllocsOp-o.AllocsOp > allocSlack {
				mark += "  REGRESSION allocs/op"
			}
			if mark != "" {
				regressions++
			}
			fmt.Fprintf(w, "%-52s %14.1f %14.1f %+8.1f%% %12.0f %12.0f%s\n", label, o.NsPerOp, n.NsPerOp, pct, o.AllocsOp, n.AllocsOp, mark)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed: ns/op beyond %.1f%% or allocs/op by more than %d\n",
			regressions, thresholdPct, allocSlack)
	}
	return regressions
}

// runDiff is the -diff entry point: load, compare, exit non-zero on any
// regression beyond the threshold.
func runDiff(oldPath, newPath string, thresholdPct float64) int {
	oldB, err := loadBaseline(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		return 2
	}
	newB, err := loadBaseline(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		return 2
	}
	if diffBaselines(os.Stdout, oldB, newB, thresholdPct) > 0 {
		return 1
	}
	return 0
}
