// Package solve puts Algorithm 1 — minimum block sizes under the Eq. 6
// throughput constraints — behind a Solver interface so the control planes
// (internal/admission per chain, internal/cluster fleet-wide) can pick a
// decision procedure by scale without changing their guarantees:
//
//   - Exact is the exact path: core.System.LeastFixedPoint, the Kleene
//     iteration of the Algorithm 1 operator seeded from the closed-form
//     optimum of its rational relaxation. Every number it touches is an
//     exact integer or rational; it is the reference all other solvers
//     answer to. (The paper's ILP statement survives only as a test oracle
//     in internal/ilp.)
//   - Fast is the float64 path: a revised simplex over the LP relaxation
//     seeds a rounding heuristic for the integer block-size variables, and a
//     float Kleene iteration polishes the rounded point to a fixed point.
//     Its candidate plan is ALWAYS re-verified with exact integer
//     arithmetic (Verify) before acceptance — verify-don't-trust: the
//     real-time guarantee never rests on floating point. On verification
//     failure it falls back to the exact path.
//   - Incremental is the warm-start layer promoted out of admission: it
//     derives a sound warm start from the previously committed assignment
//     (reuse after additions, cold restart after removals) and delegates.
//   - Tiered routes small instances to Exact (byte-stable campaign
//     verdicts) and large ones to Fast — the shape that survives thousands
//     of streams.
//
// SolveShards solves independent per-chain problems concurrently with a
// deterministic merge, and Fits/PlanPlacement are the cheap feasibility
// combination step for cluster-wide placement: exact utilisation headroom
// decides which chain can possibly take a stream before any full solve runs.
//
// Solvers do not mutate the Problem's model; callers commit Result.Blocks
// themselves. All implementations are safe for concurrent use.
package solve

import (
	"errors"
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
	// Prev is the previously committed assignment, keyed by stream name.
	// The Incremental layer turns it into a sound warm start when the new
	// stream set only adds streams; other solvers ignore it.
	Prev []Assignment
	// Start, when non-nil, positionally seeds the fixed-point iteration.
	// It MUST be componentwise ≤ the least fixed point (see
	// core.System.LeastFixedPoint); most callers leave it nil and set Prev.
	Start []int64
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
	// PathFloat: the float64 fast path, exactly re-verified.
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
	// Verified is true when the assignment passed exact verification. The
	// exact path is verified by construction; the fast path sets it only
	// after Verify accepted the plan.
	Verified bool
}

// Solver is one Algorithm 1 decision procedure. Implementations must be
// safe for concurrent use and must not mutate the Problem.
type Solver interface {
	Name() string
	Solve(p *Problem) (*Result, error)
}

// ErrUnverified is returned by Fast (with no fallback configured) when the
// float candidate fails exact verification.
var ErrUnverified = errors.New("solve: fast-path plan failed exact verification")

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

// granAt returns the effective granularity of stream i.
func (p *Problem) granAt(i int) int64 {
	if p.Granularity == nil || p.Granularity[i] < 1 {
		return 1
	}
	return p.Granularity[i]
}

// roundUpTo rounds v up to the next multiple of g (g ≤ 1 is identity).
func roundUpTo(v, g int64) int64 {
	if g <= 1 {
		return v
	}
	if rem := v % g; rem != 0 {
		v += g - rem
	}
	return v
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
// is the verify-don't-trust step: no float value from the fast path reaches
// a guarantee without passing through it.
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
// over a Tiered router — Exact for instances up to DefaultExactMax streams
// (byte-stable campaign verdicts), Fast with an Exact fallback beyond.
// warmRounds bounds the fixed-point iterations (0 = the core default).
// ilpNodes is ignored: no production path runs branch and bound any more,
// and the parameter stays only so existing callers compile.
func Default(ilpNodes, warmRounds int) Solver {
	exact := &Exact{WarmRounds: warmRounds}
	fast := &Fast{Rounds: warmRounds, Fallback: exact}
	return &Incremental{Inner: &Tiered{ExactMax: DefaultExactMax, Exact: exact, Fast: fast}}
}

// DefaultExactMax is the stream count up to which the Default stack stays
// on the exact path; larger instances take the float fast path. The split
// dates from when the exact path ran a dense rational tableau. Seeded from
// the relaxation, the exact path matches or beats the fast path at every
// benchmarked size (EXPERIMENTS E16); whether to keep the split is an open
// ROADMAP item.
const DefaultExactMax = 24

// Tiered routes a problem by instance size: Exact below or at ExactMax
// streams, Fast above.
type Tiered struct {
	ExactMax int // 0 = DefaultExactMax
	Exact    Solver
	Fast     Solver
}

// Name identifies the router.
func (t *Tiered) Name() string { return "tiered" }

// Solve routes to the exact or fast solver by stream count.
func (t *Tiered) Solve(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	max := t.ExactMax
	if max <= 0 {
		max = DefaultExactMax
	}
	if len(p.Model.Streams) <= max {
		return t.Exact.Solve(p)
	}
	return t.Fast.Solve(p)
}
