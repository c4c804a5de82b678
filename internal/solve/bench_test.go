package solve

// Solve-latency benchmarks for the BENCH_*.json trajectory: the exact
// relaxation-seeded fixed point at three sizes, and the warm-started
// re-admission the control planes run in steady state. cmd/benchrecord
// records them and benchrecord -diff compares them across changes.

import (
	"testing"
)

// benchProblem keeps the aggregate load at 1/8 · 4 = 50% utilisation so
// every size is comfortably feasible and the measured work is solving, not
// feasibility rejection.
func benchProblem(n int) *Problem {
	return &Problem{Model: testSystem(n, 1, 8)}
}

func benchSolver(b *testing.B, s Solver, n int) {
	b.Helper()
	p := benchProblem(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(p); err != nil {
			b.Fatalf("%s n=%d: %v", s.Name(), n, err)
		}
	}
}

func BenchmarkSolveExact100Streams(b *testing.B)  { benchSolver(b, &Exact{}, 100) }
func BenchmarkSolveExact1000Streams(b *testing.B) { benchSolver(b, &Exact{}, 1000) }
func BenchmarkSolveExact4000Streams(b *testing.B) { benchSolver(b, &Exact{}, 4000) }

// BenchmarkSolveWarmReadmit measures the incremental path: a solved
// 1000-stream system re-admitted with one new stream, seeded from the
// previous assignment. This is the admission controller's steady-state
// solve, and the case the warm-start layer exists for.
func BenchmarkSolveWarmReadmit(b *testing.B) {
	base := benchProblem(1000)
	s := &Incremental{Inner: &Exact{}}
	res, err := s.Solve(base)
	if err != nil {
		b.Fatal(err)
	}
	prev := make([]Assignment, len(base.Model.Streams))
	for i, st := range base.Model.Streams {
		prev[i] = Assignment{Name: st.Name, Block: res.Blocks[i]}
	}
	grown := benchProblem(1001)
	grown.Prev = prev
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(grown); err != nil {
			b.Fatal(err)
		}
	}
}
