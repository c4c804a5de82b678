package solve

import (
	"fmt"
	"math"
)

// This file is the float64 counterpart of internal/ilp's rational tableau:
// a revised simplex that maintains an explicit basis inverse instead of the
// full tableau, with Bland's rule for anti-cycling and eps tolerances in
// place of exact sign tests. It only ever produces *candidates* — nothing
// downstream trusts a float until Verify has re-checked it in big.Rat.

const floatEps = 1e-9

// FloatRel is a float constraint relation.
type FloatRel int

// Float constraint relations.
const (
	FloatLE FloatRel = iota // Σ coef·x ≤ rhs
	FloatGE                 // Σ coef·x ≥ rhs
	FloatEQ                 // Σ coef·x = rhs
)

// FloatCon is one float linear constraint Σ coef·x (Rel) rhs.
type FloatCon struct {
	Coef []float64
	Rel  FloatRel
	RHS  float64
}

// FloatLP is a linear program over float64 with implicitly non-negative
// variables, mirroring ilp.Problem's shape.
type FloatLP struct {
	Minimize bool
	Obj      []float64
	Cons     []FloatCon
}

// FloatStatus mirrors ilp.Status for the float path.
type FloatStatus int

// Float solve outcomes.
const (
	FloatOptimal FloatStatus = iota
	FloatInfeasible
	FloatUnbounded
)

// FloatSolution is the result of SolveFloatLP.
type FloatSolution struct {
	Status FloatStatus
	X      []float64
	Obj    float64
}

// SolveFloatLP solves the LP with a dense two-phase simplex over float64.
// Bland's rule keeps it cycle-free; all comparisons use floatEps. The
// result is a heuristic seed, never a guarantee.
func SolveFloatLP(p *FloatLP) (*FloatSolution, error) {
	n := len(p.Obj)
	if n == 0 {
		return nil, fmt.Errorf("solve: float LP with no variables")
	}
	// Standard form: Σ coef·x + slack = rhs with rhs ≥ 0. GE rows get a
	// surplus (-1) column, EQ rows none; rows whose slack cannot seed the
	// basis get a phase-1 artificial.
	m := len(p.Cons)
	type row struct {
		coef []float64
		rhs  float64
	}
	rows := make([]row, m)
	nSlack := 0
	slackCol := make([]int, m) // column index of this row's slack, -1 if none
	slackSign := make([]float64, m)
	for i, c := range p.Cons {
		r := row{coef: make([]float64, n), rhs: c.RHS}
		copy(r.coef, c.Coef)
		slackCol[i] = -1
		switch c.Rel {
		case FloatLE:
			slackCol[i] = n + nSlack
			slackSign[i] = 1
			nSlack++
		case FloatGE:
			slackCol[i] = n + nSlack
			slackSign[i] = -1
			nSlack++
		}
		rows[i] = r
	}
	total := n + nSlack // structural + slack columns
	// Build the dense phase matrix with artificials appended per row as
	// needed after normalising rhs ≥ 0.
	a := make([][]float64, m)
	b := make([]float64, m)
	basis := make([]int, m)
	nArt := 0
	artOf := make([]int, m)
	for i := range rows {
		a[i] = make([]float64, total)
		copy(a[i], rows[i].coef)
		if slackCol[i] >= 0 {
			a[i][slackCol[i]] = slackSign[i]
		}
		b[i] = rows[i].rhs
		if b[i] < 0 {
			for j := range a[i] {
				a[i][j] = -a[i][j]
			}
			b[i] = -b[i]
		}
		// A positive slack after normalisation can start basic; otherwise
		// the row needs an artificial.
		if slackCol[i] >= 0 && a[i][slackCol[i]] > floatEps {
			basis[i] = slackCol[i]
			artOf[i] = -1
		} else {
			artOf[i] = nArt
			nArt++
		}
	}
	cols := total + nArt
	for i := range a {
		a[i] = append(a[i], make([]float64, nArt)...)
		if artOf[i] >= 0 {
			a[i][total+artOf[i]] = 1
			basis[i] = total + artOf[i]
		}
	}

	pivot := func(obj []float64) FloatStatus {
		for {
			// Bland: entering column = lowest index with negative reduced
			// cost (for minimisation of obj over the current dictionary).
			enter := -1
			for j := 0; j < len(obj); j++ {
				if obj[j] < -floatEps {
					enter = j
					break
				}
			}
			if enter < 0 {
				return FloatOptimal
			}
			// Ratio test, Bland tie-break on lowest basis index.
			leave := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if a[i][enter] > floatEps {
					r := b[i] / a[i][enter]
					if r < best-floatEps || (r < best+floatEps && (leave < 0 || basis[i] < basis[leave])) {
						best = r
						leave = i
					}
				}
			}
			if leave < 0 {
				return FloatUnbounded
			}
			// Gauss-Jordan pivot on (leave, enter).
			pv := a[leave][enter]
			for j := range a[leave] {
				a[leave][j] /= pv
			}
			b[leave] /= pv
			for i := 0; i < m; i++ {
				if i == leave || math.Abs(a[i][enter]) <= floatEps {
					continue
				}
				f := a[i][enter]
				for j := range a[i] {
					a[i][j] -= f * a[leave][j]
				}
				b[i] -= f * b[leave]
			}
			f := obj[enter]
			if math.Abs(f) > floatEps {
				for j := range obj {
					obj[j] -= f * a[leave][j]
				}
			}
			basis[leave] = enter
		}
	}

	// Phase 1: minimise the artificial sum, expressed in reduced form over
	// the starting basis (artificials are basic, so subtract their rows).
	if nArt > 0 {
		p1 := make([]float64, cols)
		for j := total; j < cols; j++ {
			p1[j] = 1
		}
		for i := 0; i < m; i++ {
			if basis[i] >= total {
				for j := 0; j < cols; j++ {
					p1[j] -= a[i][j]
				}
			}
		}
		if st := pivot(p1); st == FloatUnbounded {
			return nil, fmt.Errorf("solve: phase-1 float LP unbounded (internal error)")
		}
		val := 0.0
		for i := 0; i < m; i++ {
			if basis[i] >= total {
				val += b[i]
			}
		}
		if val > 1e-6 {
			return &FloatSolution{Status: FloatInfeasible}, nil
		}
		// Drive any degenerate artificials out of the basis where possible;
		// rows stuck on an artificial at value ~0 are redundant and kept.
		for i := 0; i < m; i++ {
			if basis[i] < total {
				continue
			}
			for j := 0; j < total; j++ {
				if math.Abs(a[i][j]) > floatEps {
					pv := a[i][j]
					for k := range a[i] {
						a[i][k] /= pv
					}
					b[i] /= pv
					for r := 0; r < m; r++ {
						if r == i || math.Abs(a[r][j]) <= floatEps {
							continue
						}
						f := a[r][j]
						for k := range a[r] {
							a[r][k] -= f * a[i][k]
						}
						b[r] -= f * b[i]
					}
					basis[i] = j
					break
				}
			}
		}
	}

	// Phase 2: the real objective in reduced form over the phase-1 basis.
	sign := 1.0
	if !p.Minimize {
		sign = -1
	}
	p2 := make([]float64, cols)
	for j := 0; j < n; j++ {
		p2[j] = sign * p.Obj[j]
	}
	for j := total; j < cols; j++ {
		p2[j] = math.Inf(1) // artificials must never re-enter
	}
	for i := 0; i < m; i++ {
		f := p2[basis[i]]
		if math.IsInf(f, 1) || math.Abs(f) <= floatEps {
			continue
		}
		for j := range p2 {
			if !math.IsInf(p2[j], 1) {
				p2[j] -= f * a[i][j]
			}
		}
	}
	// Inf reduced costs would confuse the entering test; artificials have
	// cost +Inf which is never < -eps, so the pivot loop is safe as-is.
	if st := pivot(p2); st == FloatUnbounded {
		return &FloatSolution{Status: FloatUnbounded}, nil
	}

	sol := &FloatSolution{Status: FloatOptimal, X: make([]float64, n)}
	for i := 0; i < m; i++ {
		if basis[i] < n {
			sol.X[basis[i]] = b[i]
		}
	}
	for j := 0; j < n; j++ {
		sol.Obj += p.Obj[j] * sol.X[j]
	}
	return sol, nil
}
