package dataflow

import (
	"fmt"
)

// HSDFExpansion is the result of expanding an SDF graph into a Homogeneous
// SDF graph: every actor a is replaced by Repetitions().Firings[a] copies,
// all rates are 1, and inter-copy dependencies carry the appropriate number
// of initial tokens.
type HSDFExpansion struct {
	Graph *Graph
	// Copy[a][k] is the HSDF actor id of the k-th copy of original actor a.
	Copy [][]ActorID
	// Origin[h] maps an HSDF actor back to its original actor.
	Origin []ActorID
	Reps   *RepetitionVector
}

// IsSDF reports whether every actor has exactly one phase and every quanta
// list is constant, i.e. the graph is plain SDF.
func (g *Graph) IsSDF() bool {
	for i := range g.Actors {
		if g.Actors[i].Phases() != 1 {
			return false
		}
	}
	for i := range g.Edges {
		if len(g.Edges[i].Prod) != 1 || len(g.Edges[i].Cons) != 1 {
			return false
		}
	}
	return true
}

// ExpandHSDF converts a consistent SDF graph (single-phase actors, constant
// rates) into its homogeneous expansion. The paper (§III) notes that this is
// only possible when rates are fixed — a parametric block size prevents it —
// which is exactly why the single-actor SDF abstraction exists. We implement
// the expansion for fixed rates so MCM-style analysis is available as an
// independent cross-check of the simulation-based throughput.
//
// Construction: the k-th copy (k zero-based) of consumer dst in iteration n
// consumes tokens with global (1-based) indices l = (n*q_dst + k)*c + j for
// j = 1..c. Token l is initial when l <= d, otherwise it is emitted by the
// global producer firing m = ceil((l-d)/p). Writing m-1 = i*q_src + r with
// r in [0, q_src), the HSDF dependency runs from copy r of src to copy k of
// dst and carries n-i initial tokens; evaluated at n = 0 this is -i, which
// is non-negative because within one iteration m never exceeds q_src.
// Parallel edges are merged keeping the minimum token count (the tightest
// constraint).
func (g *Graph) ExpandHSDF() (*HSDFExpansion, error) {
	if !g.IsSDF() {
		return nil, fmt.Errorf("dataflow: ExpandHSDF requires a plain SDF graph (got CSDF %q)", g.Name)
	}
	reps, err := g.Repetitions()
	if err != nil {
		return nil, err
	}
	h := NewGraph(g.Name + ".hsdf")
	exp := &HSDFExpansion{Graph: h, Reps: reps}
	exp.Copy = make([][]ActorID, len(g.Actors))
	for a := range g.Actors {
		q := reps.Firings[a]
		exp.Copy[a] = make([]ActorID, q)
		for k := int64(0); k < q; k++ {
			id := h.AddActor(fmt.Sprintf("%s#%d", g.Actors[a].Name, k), g.Actors[a].Duration[0])
			exp.Copy[a][k] = id
			exp.Origin = append(exp.Origin, ActorID(a))
		}
	}
	// Explicit successor edges between consecutive firings of the same actor
	// encode the implicit self-edge (no auto-concurrency): copy k enables
	// copy k+1; the wrap-around edge carries one initial token.
	for a := range g.Actors {
		q := reps.Firings[a]
		for k := int64(0); k < q; k++ {
			next := (k + 1) % q
			init := int64(0)
			if next == k || next == 0 {
				init = 1
			}
			h.AddEdge(fmt.Sprintf("%s.self%d", g.Actors[a].Name, k),
				exp.Copy[a][k], exp.Copy[a][next], Const(1), Const(1), init)
		}
	}
	type key struct{ from, to ActorID }
	best := make(map[key]int64)
	for ei := range g.Edges {
		e := &g.Edges[ei]
		p, c, d := e.Prod[0], e.Cons[0], e.Initial
		if p == 0 || c == 0 {
			continue
		}
		qd := reps.Firings[e.Dst]
		qs := reps.Firings[e.Src]
		for k := int64(0); k < qd; k++ {
			for j := int64(1); j <= c; j++ {
				l := k*c + j
				m := ceilDiv(l-d, p) // global producer firing, 1-based; <= 0 when covered by initial tokens
				i := floorDiv(m-1, qs)
				r := (m - 1) - i*qs
				toks := -i
				if toks < 0 {
					return nil, fmt.Errorf("dataflow: internal expansion error on edge %q (m=%d q_src=%d)", e.Name, m, qs)
				}
				kk := key{exp.Copy[e.Src][r], exp.Copy[e.Dst][k]}
				if old, ok := best[kk]; !ok || toks < old {
					best[kk] = toks
				}
			}
		}
	}
	for kk, toks := range best {
		h.AddEdge(fmt.Sprintf("dep.%d.%d", kk.from, kk.to), kk.from, kk.to, Const(1), Const(1), toks)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return exp, nil
}

// ceilDiv returns ceil(a/b) for b > 0 and any a.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// floorDiv returns floor(a/b) for b > 0 and any a.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}
