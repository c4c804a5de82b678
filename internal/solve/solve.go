// Package solve puts Algorithm 1 — minimum block sizes under the Eq. 6
// throughput constraints — behind a Solver interface, so the control planes
// (internal/admission per chain, internal/cluster fleet-wide) share one
// decision procedure and one exact acceptance check:
//
//   - Exact is the decision procedure: core.System.LeastFixedPoint, the
//     Kleene iteration of the Algorithm 1 operator seeded from the
//     closed-form optimum of its rational relaxation. Every number it
//     touches is an exact integer or rational. (The paper's ILP statement
//     survives only as a test oracle in internal/ilp.)
//   - Incremental is the warm-start layer promoted out of admission: it
//     derives a sound warm start from the previously committed assignment
//     (reuse after additions, cold restart after removals) and delegates.
//   - Verify re-checks a plan that did not come from Exact — blocks
//     imported with a migrating stream — with exact integer arithmetic
//     before it may be applied.
//   - PlanRebalance plans cross-chain migrations that shrink the fleet's
//     exact utilisation spread, with no solver run.
//
// Default is the production stack, Incremental over Exact. Solvers are
// stateless: they never mutate the Problem, and callers commit
// Result.Blocks themselves.
package solve

import (
	"fmt"

	"accelshare/internal/core"
)

// Assignment names one stream's committed block size (the warm-start
// currency between the control planes and the Incremental layer).
type Assignment struct {
	Name  string
	Block int64
}

// Problem is one Algorithm 1 instance.
type Problem struct {
	// Model holds the candidate stream set with rates, reconfiguration
	// costs and chain parameters. Block fields are ignored as inputs and
	// never written by a Solver.
	Model *core.System
	// Granularity constrains ηs to multiples of Granularity[s] (nil = all
	// ones; entries < 1 are treated as 1).
	Granularity []int64
	// Prev is the previously committed assignment. The Incremental layer
	// turns it into a sound warm start when it names the model's leading
	// streams in order, as after a growth that appends newcomers, and
	// restarts cold on any other Prev; other solvers ignore it.
	Prev []Assignment
	// Start, when non-nil, positionally seeds the fixed-point iteration.
	// It MUST be componentwise ≤ the least fixed point (see
	// core.System.LeastFixedPoint); most callers leave it nil and set Prev.
	Start []int64
	// Scratch, when non-nil, is the caller's working storage for the
	// solve (core.System.LeastFixedPointIn), so a caller that decides again
	// and again reuses it instead of allocating per solve. It serves one
	// solve at a time, and Result.Blocks then lives in it until its next
	// solve. The results are the same either way.
	Scratch *core.Scratch
}

// Path identifies which decision procedure produced a Result.
type Path string

// Solver paths.
const (
	// PathILP is never produced. It named the branch-and-bound path, which
	// is now only a test oracle; the name stays for callers that still
	// count paths by it.
	PathILP Path = "ilp"
	// PathWarm: the exact seeded Kleene fixed point.
	PathWarm Path = "warm"
	// PathFloat is never produced either. It named the float64 fast path,
	// which is gone; the name stays for callers that still count paths by
	// it.
	PathFloat Path = "float"
)

// Result is a feasible minimum block-size assignment.
type Result struct {
	// Blocks[i] is ηs for Model.Streams[i].
	Blocks []int64
	// Total is Σ ηs, Algorithm 1's objective.
	Total int64
	// Rounds counts fixed-point iterations.
	Rounds int
	// Path names the procedure that produced the assignment.
	Path Path
}

// Solver is one Algorithm 1 decision procedure. Implementations are
// stateless and never mutate the Problem.
type Solver interface {
	Name() string
	Solve(p *Problem) (*Result, error)
}

// validate checks the problem shape shared by every solver.
func (p *Problem) validate() error {
	if p.Model == nil {
		return fmt.Errorf("solve: nil model")
	}
	n := len(p.Model.Streams)
	if p.Granularity != nil && len(p.Granularity) != n {
		return fmt.Errorf("solve: %d granularities for %d streams", len(p.Granularity), n)
	}
	if p.Start != nil && len(p.Start) != n {
		return fmt.Errorf("solve: %d warm-start entries for %d streams", len(p.Start), n)
	}
	return nil
}

// Verification is the outcome of one exact check of a candidate
// assignment against the Algorithm 1 operator.
type Verification struct {
	// Feasible: every stream satisfies Eq. 6 (η ≥ F(η) componentwise) and
	// every block is a positive granularity multiple. Only a feasible plan
	// may ever be applied to the platform.
	Feasible bool
	// Tight: η = F(η) exactly — the plan is a genuine fixed point, carrying
	// no slack that a smaller feasible plan could reclaim.
	Tight bool
	// Detail names the first violated stream for infeasible plans.
	Detail string
}

// Verify checks a candidate assignment with exact integer arithmetic. This
// is the verify-don't-trust step for plans that did not come out of Exact:
// blocks imported with a migrating stream (admission.AdmitMigrated) reach
// the platform only after passing it.
func Verify(m *core.System, granularity, blocks []int64) Verification {
	if len(blocks) != len(m.Streams) {
		return Verification{Detail: fmt.Sprintf("%d blocks for %d streams", len(blocks), len(m.Streams))}
	}
	for i, b := range blocks {
		g := int64(1)
		if granularity != nil && i < len(granularity) {
			g = granularity[i]
		}
		if b < 1 || (g > 1 && b%g != 0) {
			return Verification{Detail: fmt.Sprintf("stream %q block %d is not a positive multiple of %d",
				m.Streams[i].Name, b, g)}
		}
	}
	f, err := m.ApplyOperator(granularity, blocks)
	if err != nil {
		return Verification{Detail: err.Error()}
	}
	tight := true
	for i := range blocks {
		if blocks[i] < f[i] {
			return Verification{Detail: fmt.Sprintf("stream %q block %d < required %d",
				m.Streams[i].Name, blocks[i], f[i])}
		}
		if blocks[i] != f[i] {
			tight = false
		}
	}
	return Verification{Feasible: true, Tight: tight}
}

// Default is the production solver stack: the Incremental warm-start layer
// over Exact. Both parameters are ignored and stay only so existing callers
// compile: no production path runs branch and bound any more, and Exact
// iterates at most core.DefaultRounds rounds.
func Default(ilpNodes, warmRounds int) Solver {
	return &Incremental{Inner: &Exact{}}
}
