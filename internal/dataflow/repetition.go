package dataflow

import (
	"fmt"
	"math/big"
)

// RepetitionVector holds the smallest positive integer solution of the
// balance equations. Cycles[a] counts complete phase cycles of actor a per
// graph iteration; Firings[a] = Cycles[a] * phases(a) counts individual
// firings.
type RepetitionVector struct {
	Cycles  []int64
	Firings []int64
}

// totalPerCycle returns the number of tokens a port moves during one full
// phase cycle of its actor, honouring broadcast (length-1) quanta.
func totalPerCycle(q Quanta, phases int) int64 {
	if len(q) == 1 {
		return q[0] * int64(phases)
	}
	return q.Sum()
}

// Repetitions solves the CSDF balance equations
//
//	totalProd(e) * cycles(src) == totalCons(e) * cycles(dst)
//
// for every edge e and returns the smallest positive integer solution. The
// graph must be connected and consistent; edges whose total production and
// consumption are both zero impose no constraint.
func (g *Graph) Repetitions() (*RepetitionVector, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Actors)
	rat := make([]*big.Rat, n)

	// Propagate ratios over a spanning forest, checking consistency on every
	// edge afterwards.
	adj := make([][]EdgeID, n)
	for i := range g.Edges {
		adj[g.Edges[i].Src] = append(adj[g.Edges[i].Src], EdgeID(i))
		adj[g.Edges[i].Dst] = append(adj[g.Edges[i].Dst], EdgeID(i))
	}
	for root := 0; root < n; root++ {
		if rat[root] != nil {
			continue
		}
		rat[root] = big.NewRat(1, 1)
		stack := []int{root}
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range adj[a] {
				e := &g.Edges[eid]
				p := totalPerCycle(e.Prod, g.Actors[e.Src].Phases())
				c := totalPerCycle(e.Cons, g.Actors[e.Dst].Phases())
				if p == 0 && c == 0 {
					continue
				}
				if p == 0 || c == 0 {
					return nil, fmt.Errorf("dataflow: edge %q moves tokens on one side only (prod=%d cons=%d)", e.Name, p, c)
				}
				var from, to int
				var ratio *big.Rat // rat[to] = rat[from] * ratio
				if int(e.Src) == a {
					from, to = a, int(e.Dst)
					ratio = big.NewRat(p, c)
				} else {
					from, to = a, int(e.Src)
					ratio = big.NewRat(c, p)
				}
				want := new(big.Rat).Mul(rat[from], ratio)
				if rat[to] == nil {
					rat[to] = want
					stack = append(stack, to)
				} else if rat[to].Cmp(want) != 0 {
					return nil, fmt.Errorf("dataflow: graph %q is inconsistent at edge %q", g.Name, e.Name)
				}
			}
		}
	}

	// Scale to the smallest positive integers: multiply by the lcm of
	// denominators, then divide by the gcd of numerators.
	lcm := big.NewInt(1)
	for _, r := range rat {
		lcm.Div(new(big.Int).Mul(lcm, r.Denom()), new(big.Int).GCD(nil, nil, lcm, r.Denom()))
	}
	ints := make([]*big.Int, n)
	gcd := new(big.Int)
	for i, r := range rat {
		v := new(big.Int).Mul(r.Num(), new(big.Int).Div(lcm, r.Denom()))
		ints[i] = v
		if i == 0 {
			gcd.Set(v)
		} else {
			gcd.GCD(nil, nil, gcd, v)
		}
	}
	rv := &RepetitionVector{Cycles: make([]int64, n), Firings: make([]int64, n)}
	for i, v := range ints {
		q := new(big.Int).Div(v, gcd)
		if !q.IsInt64() {
			return nil, fmt.Errorf("dataflow: repetition count of actor %q overflows int64", g.Actors[i].Name)
		}
		rv.Cycles[i] = q.Int64()
		rv.Firings[i] = q.Int64() * int64(g.Actors[i].Phases())
	}
	return rv, nil
}

// TokensPerIteration returns the number of tokens edge e moves during one
// graph iteration (its production total over one full phase cycle of the
// source, times the source's repetition count). For a consistent graph this
// equals the consumption-side total.
func (g *Graph) TokensPerIteration(rv *RepetitionVector, e EdgeID) int64 {
	ed := &g.Edges[e]
	return totalPerCycle(ed.Prod, g.Actors[ed.Src].Phases()) * rv.Cycles[ed.Src]
}
