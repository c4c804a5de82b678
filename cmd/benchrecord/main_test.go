package main

import "testing"

// TestParseBenchScalesTimeOnly: the reference scale applies to ns/op and
// to nothing else, sub-benchmarks included.
func TestParseBenchScalesTimeOnly(t *testing.T) {
	out := []byte(`goos: linux
goarch: amd64
pkg: accelshare
cpu: Test CPU
BenchmarkModes/fixed-2   	      10	   1000000 ns/op	    4096 B/op	      12 allocs/op
BenchmarkModes/per-word-2	       5	     20.5 ns/op	       0 B/op	       0 allocs/op
PASS
`)
	var meta [3]string
	recs, err := parseBench(out, ".", 0.5, &meta)
	if err != nil {
		t.Fatal(err)
	}
	if meta != [3]string{"linux", "amd64", "Test CPU"} {
		t.Errorf("meta = %q", meta)
	}
	want := []record{
		{Name: "BenchmarkModes/fixed", Package: ".", Iters: 10, NsPerOp: 500000, BytesOp: 4096, AllocsOp: 12},
		{Name: "BenchmarkModes/per-word", Package: ".", Iters: 5, NsPerOp: 10.25},
	}
	if len(recs) != len(want) {
		t.Fatalf("records = %+v, want %+v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}
