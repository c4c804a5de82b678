package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"accelshare/internal/solve"
)

// Span names: one per layer boundary the benchmark crosses through a
// public call, and one for the reference jobs that pace the timing (see
// refMeter).
const (
	spanRep         = "rep"
	spanSetup       = "setup"
	spanRun         = "run"
	spanSolve       = "solve"
	spanSubmit      = "cluster.submit"
	spanDepart      = "cluster.depart"
	spanConformance = "conformance"
	spanReference   = "reference"
)

// span is one timed call. Parent is the index of the span that was open
// when it began (-1 for a root); Key names the stream a cluster call
// served.
type span struct {
	Name   string        `json:"name"`
	Key    string        `json:"key,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer is the untraced run: every
// method is a no-op, so the measured code path carries no timing calls.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name, key string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Key: key, Parent: parent, Start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solveCounts tallies Algorithm 1 calls by the path that answered them.
type solveCounts struct {
	calls, errors, rounds int
	paths                 map[solve.Path]int
}

func newSolveCounts() *solveCounts { return &solveCounts{paths: map[solve.Path]int{}} }

// timedSolver delegates to Inner, counting every call and, when traced,
// recording it as a span. Name passes through, so provenance labels the
// control planes print are unchanged. after, when set, runs after every
// call.
type timedSolver struct {
	Inner  solve.Solver
	tr     *tracer
	counts *solveCounts
	after  func()
}

// wrap returns a timedSolver over inner that shares s's tracer, counts and
// after hook.
func (s *timedSolver) wrap(inner solve.Solver) *timedSolver {
	return &timedSolver{Inner: inner, tr: s.tr, counts: s.counts, after: s.after}
}

// Name reports the wrapped solver's name.
func (s *timedSolver) Name() string { return s.Inner.Name() }

// Solve runs the wrapped solver.
func (s *timedSolver) Solve(p *solve.Problem) (*solve.Result, error) {
	id := s.tr.begin(spanSolve, "")
	res, err := s.Inner.Solve(p)
	s.tr.end(id)
	if s.after != nil {
		s.after()
	}
	s.counts.calls++
	if err != nil {
		s.counts.errors++
		return res, err
	}
	s.counts.paths[res.Path]++
	s.counts.rounds += res.Rounds
	return res, nil
}

// observe adds the solver tallies to o.
func (c *solveCounts) observe(o *observation) {
	o.add("solve.calls", float64(c.calls))
	o.add("solve.errors", float64(c.errors))
	o.add("solve.rounds", float64(c.rounds))
	for _, p := range []solve.Path{solve.PathILP, solve.PathWarm, solve.PathFloat} {
		o.add("solve.calls."+string(p), float64(c.paths[p]))
	}
}
