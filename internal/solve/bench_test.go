package solve

// Solve-latency benchmarks for the BENCH_*.json trajectory (ROADMAP "solver
// scale-out"). Each size is measured twice: the float fast path (simplex
// seed + float Kleene + exact verification — the production default above
// the tiering threshold) and the exact relaxation-seeded fixed point. The
// fast path's ns/op INCLUDES the exact verification pass —
// verify-don't-trust is part of the cost being measured, not an overhead
// excluded from it. cmd/benchrecord records both and benchrecord -diff
// compares them across changes.

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
		res, err := s.Solve(p)
		if err != nil {
			b.Fatalf("%s n=%d: %v", s.Name(), n, err)
		}
		if !res.Verified {
			b.Fatalf("%s n=%d: result not verified", s.Name(), n)
		}
	}
}

func fastBench() Solver {
	// Production wiring above the tier threshold, minus the fallback (a
	// fallback firing would silently benchmark the exact path; erroring is
	// the honest failure mode here).
	return &Fast{}
}

func exactBench() Solver { return &Exact{} }

func BenchmarkSolve100Streams(b *testing.B)  { benchSolver(b, fastBench(), 100) }
func BenchmarkSolve1000Streams(b *testing.B) { benchSolver(b, fastBench(), 1000) }
func BenchmarkSolve4000Streams(b *testing.B) { benchSolver(b, fastBench(), 4000) }

func BenchmarkSolveExact100Streams(b *testing.B)  { benchSolver(b, exactBench(), 100) }
func BenchmarkSolveExact1000Streams(b *testing.B) { benchSolver(b, exactBench(), 1000) }
func BenchmarkSolveExact4000Streams(b *testing.B) { benchSolver(b, exactBench(), 4000) }

// BenchmarkSolveWarmReadmit measures the incremental path: a solved
// 1000-stream system re-admitted with one new stream, seeded from the
// previous assignment. This is the admission controller's steady-state
// solve, and the case the warm-start layer exists for.
func BenchmarkSolveWarmReadmit(b *testing.B) {
	base := benchProblem(1000)
	s := &Incremental{Inner: fastBench()}
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
		r, err := s.Solve(grown)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Verified {
			b.Fatal("warm readmit result not verified")
		}
	}
}
