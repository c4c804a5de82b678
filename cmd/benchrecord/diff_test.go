package main

import (
	"strings"
	"testing"
)

func mkBaseline(ns map[string]float64) *baseline {
	b := &baseline{}
	for name, v := range ns {
		b.Benchmarks = append(b.Benchmarks, record{Name: name, Package: ".", NsPerOp: v})
	}
	return b
}

func TestDiffFlagsRegressionsBeyondThreshold(t *testing.T) {
	oldB := mkBaseline(map[string]float64{
		"BenchmarkStable":  100,
		"BenchmarkFaster":  100,
		"BenchmarkSlower":  100,
		"BenchmarkBarely":  100,
		"BenchmarkRemoved": 50,
	})
	newB := mkBaseline(map[string]float64{
		"BenchmarkStable": 100,
		"BenchmarkFaster": 40,
		"BenchmarkSlower": 150, // +50%: regression at a 10% threshold
		"BenchmarkBarely": 109, // +9%: within threshold
		"BenchmarkAdded":  30,
	})
	var sb strings.Builder
	if got := diffBaselines(&sb, oldB, newB, 10); got != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", got, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkSlower", "REGRESSION",
		"BenchmarkRemoved", "removed",
		"BenchmarkAdded", "added",
		"+50.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(strings.Replace(out, "BenchmarkSlower", "", 1)+"", "BenchmarkSlower") {
		t.Fatalf("BenchmarkSlower listed more than once:\n%s", out)
	}
	// The barely-slower bench must not be marked.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "BenchmarkBarely") && strings.Contains(line, "REGRESSION") {
			t.Fatalf("within-threshold bench marked as regression: %s", line)
		}
	}
}

func TestDiffThresholdIsConfigurable(t *testing.T) {
	oldB := mkBaseline(map[string]float64{"BenchmarkX": 100})
	newB := mkBaseline(map[string]float64{"BenchmarkX": 120})
	var sb strings.Builder
	if got := diffBaselines(&sb, oldB, newB, 30); got != 0 {
		t.Fatalf("+20%% flagged at a 30%% threshold:\n%s", sb.String())
	}
	sb.Reset()
	if got := diffBaselines(&sb, oldB, newB, 5); got != 1 {
		t.Fatalf("+20%% not flagged at a 5%% threshold:\n%s", sb.String())
	}
}

func TestDiffOutputIsDeterministic(t *testing.T) {
	oldB := mkBaseline(map[string]float64{"BenchmarkB": 1, "BenchmarkA": 2, "BenchmarkC": 3})
	newB := mkBaseline(map[string]float64{"BenchmarkC": 3, "BenchmarkA": 2, "BenchmarkB": 1})
	var a, b strings.Builder
	diffBaselines(&a, oldB, newB, 10)
	diffBaselines(&b, oldB, newB, 10)
	if a.String() != b.String() {
		t.Fatal("diff output differs across runs")
	}
	ia := strings.Index(a.String(), "BenchmarkA")
	ib := strings.Index(a.String(), "BenchmarkB")
	ic := strings.Index(a.String(), "BenchmarkC")
	if !(ia < ib && ib < ic) {
		t.Fatalf("rows not sorted by name:\n%s", a.String())
	}
}

func TestDiffFlagsAllocGrowthBeyondOnePerOp(t *testing.T) {
	rec := func(name string, ns, allocs float64) record {
		return record{Name: name, Package: ".", NsPerOp: ns, AllocsOp: allocs}
	}
	oldB := &baseline{Benchmarks: []record{
		rec("BenchmarkJitter", 100, 10),
		rec("BenchmarkLeak", 100, 10),
		rec("BenchmarkFewer", 100, 10),
		rec("BenchmarkBoth", 100, 0),
	}}
	newB := &baseline{Benchmarks: []record{
		rec("BenchmarkJitter", 100, 11), // +1 alloc/op: within the slack
		rec("BenchmarkLeak", 90, 12),    // faster, but +2 allocs/op
		rec("BenchmarkFewer", 100, 3),
		rec("BenchmarkBoth", 200, 5), // both gates: one regression
	}}
	var sb strings.Builder
	if got := diffBaselines(&sb, oldB, newB, 75); got != 2 {
		t.Fatalf("regressions = %d, want 2\n%s", got, sb.String())
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		flagged := strings.Contains(line, "REGRESSION")
		switch {
		case strings.Contains(line, "BenchmarkLeak") && !strings.Contains(line, "REGRESSION allocs/op"),
			strings.Contains(line, "BenchmarkBoth") && !(strings.Contains(line, "REGRESSION ns/op") && strings.Contains(line, "REGRESSION allocs/op")),
			(strings.Contains(line, "BenchmarkJitter") || strings.Contains(line, "BenchmarkFewer")) && flagged:
			t.Fatalf("wrong verdict: %s", line)
		}
	}
}
