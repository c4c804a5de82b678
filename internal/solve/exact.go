package solve

import "accelshare/internal/core"

// Exact is the exact decision procedure: core.System.LeastFixedPoint, the
// Kleene iteration of the granularity-rounded Algorithm 1 operator seeded
// from the closed-form least solution of its rational relaxation (raised
// componentwise by Problem.Start). Its fixed point is the componentwise-
// minimal feasible assignment, which is also the optimum of the paper's
// ILP; every intermediate value is an exact integer or rational, so its
// results are verified by construction. The iteration runs at most
// core.DefaultRounds rounds.
type Exact struct {
	// ILPStreamCap is ignored. It capped the stream count of a branch-and-
	// bound first attempt that no longer exists; the field stays only so
	// existing configurations compile.
	ILPStreamCap int
}

// Name identifies the exact solver.
func (e *Exact) Name() string { return "exact" }

// Solve runs the exact decision procedure; the Result's Path is PathWarm.
// With p.Scratch set the Result is the one p holds.
//
//accellint:noalloc guard=TestWarmSolveZeroAlloc
func (e *Exact) Solve(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res, err := p.Model.LeastFixedPointIn(p.Scratch, p.Start, p.Granularity, core.DefaultRounds)
	if err != nil {
		return nil, err
	}
	out := &p.res
	if p.Scratch == nil {
		//accellint:alloc a solve without scratch returns fresh storage
		out = new(Result)
	}
	*out = Result{Blocks: res.Blocks, Total: res.Total, Rounds: res.Rounds, Path: PathWarm}
	return out, nil
}

// Fast forwards to Fallback. It named the float64 fast path, which is gone;
// the type stays only so existing configurations compile, and a Fast with a
// nil Fallback panics on use.
type Fast struct {
	Fallback Solver
}

// Name returns Fallback's name.
func (f *Fast) Name() string { return f.Fallback.Name() }

// Solve runs Fallback.
func (f *Fast) Solve(p *Problem) (*Result, error) { return f.Fallback.Solve(p) }
