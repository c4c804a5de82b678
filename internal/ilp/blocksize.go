package ilp

import (
	"errors"
	"fmt"
	"math/big"
)

// ErrInfeasible is returned by BlockSizes when no integer assignment meets
// the throughput constraints.
var ErrInfeasible = errors.New("ilp: block-size constraints are infeasible")

// BlockSizes states the paper's Algorithm 1 directly as an ILP and solves
// it by branch and bound:
//
//	minimise   Σ ηs
//	subject to ∀s: ηs − c0·μs·Σ_i(ηi+2) ≥ μs·c1,  ηs ≥ 1 integer
//
// with mu[s] = μs in samples per cycle. gran, when non-nil, restricts ηs to
// multiples of gran[s] (ηs = gran[s]·ks, ks ≥ 1 integer; entries < 1 mean
// 1). maxNodes bounds the branch-and-bound tree (0 = the default); running
// out returns ErrBranchBudget.
//
// It is the independent reference the production least-fixed-point solver
// (core.System.LeastFixedPoint) is tested against. It applies no
// utilisation pre-check: infeasibility is the LP's own verdict.
func BlockSizes(mu []*big.Rat, c0, c1 uint64, gran []int64, maxNodes int) ([]int64, error) {
	n := len(mu)
	g := make([]*big.Rat, n)
	for i := range g {
		g[i] = big.NewRat(1, 1)
		if gran != nil && gran[i] > 1 {
			g[i].SetInt64(gran[i])
		}
	}
	one := big.NewRat(1, 1)
	p := NewMinimize()
	p.MaxNodes = maxNodes
	for i := range mu {
		p.AddVar(fmt.Sprintf("k%d", i), g[i], true)
	}
	rc0 := new(big.Rat).SetUint64(c0)
	rc1 := new(big.Rat).SetUint64(c1)
	for s := range mu {
		muc0 := new(big.Rat).Mul(mu[s], rc0)
		coef := make([]*big.Rat, n)
		for i := range coef {
			coef[i] = new(big.Rat).Mul(new(big.Rat).Neg(muc0), g[i])
		}
		coef[s].Add(coef[s], g[s])
		// RHS: μs·c1 + μs·c0·2n (moving the constant +2 terms right).
		rhs := new(big.Rat).Mul(mu[s], rc1)
		rhs.Add(rhs, new(big.Rat).Mul(muc0, big.NewRat(int64(2*n), 1)))
		p.AddConstraint(fmt.Sprintf("thr%d", s), coef, GE, rhs)
	}
	for s := range mu {
		coef := make([]*big.Rat, n) // nil entries are zero coefficients
		coef[s] = one
		p.AddConstraint(fmt.Sprintf("pos%d", s), coef, GE, one)
	}
	sol, err := p.SolveILP()
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case Infeasible:
		return nil, ErrInfeasible
	case Unbounded:
		return nil, fmt.Errorf("ilp: block-size ILP unbounded (internal error)")
	}
	blocks := make([]int64, n)
	for i, x := range sol.X {
		eta := new(big.Rat).Mul(x, g[i])
		if !eta.IsInt() || !eta.Num().IsInt64() {
			return nil, fmt.Errorf("ilp: block %d = %v is not an int64", i, eta)
		}
		blocks[i] = eta.Num().Int64()
	}
	return blocks, nil
}
