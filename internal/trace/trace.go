// Package trace renders execution traces of dataflow simulations as textual
// Gantt charts in the style of the paper's Fig. 6 (the execution schedule of
// the gateways and accelerators processing one block).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"accelshare/internal/dataflow"
)

// Span is a half-open busy interval [Start, End) of one actor.
type Span struct {
	Start, End uint64
	Phase      int
}

// Row is the activity of a single actor.
type Row struct {
	Name  string
	Spans []Span
}

// Gantt is a renderable schedule.
type Gantt struct {
	Rows  []Row
	Start uint64
	End   uint64
}

// FromFirings builds a Gantt from a recorded trace, one row per actor that
// fired, in actor-id order.
func FromFirings(g *dataflow.Graph, firings []dataflow.Firing) *Gantt {
	byActor := map[dataflow.ActorID][]Span{}
	var minT, maxT uint64
	first := true
	for _, f := range firings {
		byActor[f.Actor] = append(byActor[f.Actor], Span{Start: f.Start, End: f.End, Phase: f.Phase})
		if first || f.Start < minT {
			minT = f.Start
		}
		if first || f.End > maxT {
			maxT = f.End
		}
		first = false
	}
	ids := make([]int, 0, len(byActor))
	for id := range byActor {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	ga := &Gantt{Start: minT, End: maxT}
	for _, id := range ids {
		spans := byActor[dataflow.ActorID(id)]
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		ga.Rows = append(ga.Rows, Row{Name: g.Actors[id].Name, Spans: spans})
	}
	return ga
}

// Render draws the Gantt with the given plot width in characters. Busy time
// is '#', zero-duration firings are '|', idle time is '.'. When several
// spans fall into one column the column is busy if any span overlaps it.
func (ga *Gantt) Render(width int) string {
	if width < 10 {
		width = 10
	}
	total := ga.End - ga.Start
	if total == 0 {
		total = 1
	}
	nameW := 4
	for _, r := range ga.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  t=%d%s t=%d  (%d cycles, %.1f cycles/col)\n",
		nameW, "", ga.Start, strings.Repeat(" ", max(1, width-len(fmt.Sprint(ga.Start))-len(fmt.Sprint(ga.End))-4)),
		ga.End, total, float64(total)/float64(width))
	for _, r := range ga.Rows {
		cols := make([]byte, width)
		for i := range cols {
			cols[i] = '.'
		}
		for _, s := range r.Spans {
			c0 := int(uint64(width) * (s.Start - ga.Start) / total)
			c1 := int(uint64(width) * (s.End - ga.Start) / total)
			if c0 >= width {
				c0 = width - 1
			}
			if c1 >= width {
				c1 = width - 1
			}
			if s.End == s.Start {
				if cols[c0] == '.' {
					cols[c0] = '|'
				}
				continue
			}
			for c := c0; c <= c1 && c < width; c++ {
				cols[c] = '#'
			}
		}
		fmt.Fprintf(&b, "%*s  %s\n", nameW, r.Name, cols)
	}
	return b.String()
}

// Summary prints per-actor figures: firings, busy cycles, utilisation over
// the trace window, first start and last end — the quantities annotated on
// the paper's Fig. 6.
func (ga *Gantt) Summary() string {
	total := ga.End - ga.Start
	if total == 0 {
		total = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %11s %7s %10s %10s\n", "actor", "firings", "busy(cyc)", "util", "first", "last")
	for _, r := range ga.Rows {
		var busy uint64
		for _, s := range r.Spans {
			busy += s.End - s.Start
		}
		first := r.Spans[0].Start
		last := r.Spans[len(r.Spans)-1].End
		fmt.Fprintf(&b, "%-8s %9d %11d %6.1f%% %10d %10d\n",
			r.Name, len(r.Spans), busy, 100*float64(busy)/float64(total), first, last)
	}
	return b.String()
}
