package solve

import (
	"slices"

	"accelshare/internal/core"
)

// Incremental is the warm-start layer promoted out of internal/admission:
// it derives a sound Start vector from the previously committed assignment
// (Problem.Prev) and delegates to Inner. Soundness follows the argument
// for core.System.LeastFixedPoint's start: when the new stream set only
// ADDS streams, the Algorithm 1 operator grows pointwise, so the old least
// fixed point is still ≤ the new one componentwise and each surviving
// stream's old block seeds the iteration correctly (newcomers start at 1).
// After a removal the least fixed point SHRINKS, so any reuse of old blocks
// could overshoot it and land on a non-minimal fixed point. The layer
// therefore warm-starts only when Prev names the model's leading streams
// in order — the shape of a growth, whose newcomers are appended — and
// restarts cold on any other Prev, a removal's included.
type Incremental struct {
	Inner Solver
}

// Name identifies the warm-start layer.
func (w *Incremental) Name() string { return "incremental(" + w.Inner.Name() + ")" }

// Solve derives Start from Prev when sound, then delegates. An explicit
// Problem.Start from the caller wins over derivation. The derived start is
// written into a buffer p carries and rides in p itself while Inner
// solves; Start is nil again afterwards.
//
//accellint:noalloc guard=TestWarmSolveZeroAlloc
func (w *Incremental) Solve(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.Start != nil || len(p.Prev) == 0 || !leading(p.Model.Streams, p.Prev) {
		return w.Inner.Solve(p)
	}
	// The buffer grows with the model, amortised.
	start := slices.Grow(p.start[:0], len(p.Model.Streams))[:len(p.Model.Streams)]
	for i := range start {
		start[i] = 1
	}
	for i, a := range p.Prev {
		start[i] = a.Block
	}
	p.start, p.Start = start, start
	res, err := w.Inner.Solve(p)
	p.Start = nil
	return res, err
}

// leading reports whether prev names streams[:len(prev)] in order.
func leading(streams []core.Stream, prev []Assignment) bool {
	if len(prev) > len(streams) {
		return false
	}
	for i, a := range prev {
		if streams[i].Name != a.Name {
			return false
		}
	}
	return true
}
