package solve

import (
	"math"
	"math/big"

	"accelshare/internal/core"
)

// Fast is the float64 fast path. It decides feasibility with the same
// exact rational utilisation gate as the exact path (Σ μs·c0 < 1 — never a
// float), then builds a candidate cheaply in float64: a revised simplex
// over the LP relaxation seeds small instances, a float Kleene iteration
// of the Algorithm 1 operator polishes the seed (rounded up to the integer
// and granularity grid) to a fixed point. The candidate is then re-verified
// with exact big.Rat arithmetic before acceptance; a feasible-but-slack
// candidate is tightened by exact operator descent (F of a feasible point
// is again feasible and ≤ it, so iterating F lands on a true fixed point).
// Only a plan that passes Verify is ever returned; anything else goes to
// Fallback, or fails with ErrUnverified when no fallback is configured.
type Fast struct {
	// Rounds bounds the float fixed-point iteration and the exact
	// tightening descent (0 = 10_000, matching the exact path).
	Rounds int
	// SimplexCap bounds the instance size seeded by the float LP
	// relaxation (0 = DefaultSimplexCap). Above it the dense simplex costs
	// more than the iterations it saves and the seed is all-ones (or the
	// caller's warm Start).
	SimplexCap int
	// Fallback, when non-nil, is consulted when the float candidate fails
	// exact verification (or the float iteration fails to converge).
	Fallback Solver
}

// DefaultSimplexCap is the largest instance the fast path seeds with the
// dense float simplex; the LP is Θ(n³) even in floats, while the Kleene
// iteration is Θ(n·rounds).
const DefaultSimplexCap = 64

// Name identifies the fast solver.
func (f *Fast) Name() string { return "fast" }

// Solve runs the fast path; every returned Result has Verified == true.
func (f *Fast) Solve(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	m := p.Model
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// The feasibility decision is exact: utilisation Σ μs·c0 is compared
	// against 1 in big.Rat, exactly as the exact path does it. Floats only
	// ever influence WHICH feasible plan is proposed, never WHETHER one
	// exists.
	if m.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, core.ErrInfeasible
	}

	rounds := f.Rounds
	if rounds <= 0 {
		rounds = 10_000
	}

	n := len(m.Streams)
	mu := make([]float64, n)
	for i := range m.Streams {
		mu[i], _ = m.RatePerCycle(i).Float64()
	}
	c0 := float64(m.Chain.C0())
	c1 := float64(m.C1())

	eta := f.seed(p, mu, c0, c1)

	// Float Kleene iteration of the granularity-rounded operator. The
	// eps-shifted ceil keeps values that are integral up to float noise
	// (e.g. 4.999999999) from being bumped a grid step too high.
	floatRounds := 0
	converged := false
	for r := 1; r <= rounds; r++ {
		sum := 0.0
		for _, b := range eta {
			sum += float64(b + 2)
		}
		base := c1 + c0*sum
		changed := false
		for i := range eta {
			v := int64(math.Ceil(mu[i]*base - 1e-9))
			if v < 1 {
				v = 1
			}
			v = roundUpTo(v, p.granAt(i))
			if v != eta[i] {
				eta[i] = v
				changed = true
			}
		}
		floatRounds = r
		if !changed {
			converged = true
			break
		}
	}

	if converged {
		if res, ok := f.verifyAndTighten(p, eta, floatRounds, rounds); ok {
			return res, nil
		}
	}
	if f.Fallback != nil {
		return f.Fallback.Solve(p)
	}
	return nil, ErrUnverified
}

// seed produces the float iteration's starting point: the caller's warm
// Start when given, the ceiling of the float LP relaxation optimum for
// small instances, all-ones otherwise.
func (f *Fast) seed(p *Problem, mu []float64, c0, c1 float64) []int64 {
	n := len(p.Model.Streams)
	eta := make([]int64, n)
	if p.Start != nil {
		for i := range eta {
			v := p.Start[i]
			if v < 1 {
				v = 1
			}
			eta[i] = roundUpTo(v, p.granAt(i))
		}
		return eta
	}
	for i := range eta {
		eta[i] = roundUpTo(1, p.granAt(i))
	}
	lim := f.SimplexCap
	if lim <= 0 {
		lim = DefaultSimplexCap
	}
	if n > lim {
		return eta
	}
	if lp := relaxationLP(p, mu, c0, c1); lp != nil {
		if sol, err := SolveFloatLP(lp); err == nil && sol.Status == FloatOptimal {
			for i := range eta {
				v := int64(math.Ceil(sol.X[i] - 1e-9))
				if v < 1 {
					v = 1
				}
				v = roundUpTo(v, p.granAt(i))
				// The LP optimum is a lower bound on the ILP optimum, so a
				// rounded-up relaxation point is usually within one operator
				// application of the integer fixed point.
				if v > eta[i] {
					eta[i] = v
				}
			}
		}
	}
	return eta
}

// relaxationLP builds the float LP relaxation of Algorithm 1, mirroring
// the ILP statement of the test oracle (ilp.BlockSizes):
//
//	min Σ ηs  s.t.  ∀s: (1−μs·c0)·ηs − μs·c0·Σ_{i≠s} ηi ≥ μs·c1 + 2n·μs·c0,  ηs ≥ 1
func relaxationLP(p *Problem, mu []float64, c0, c1 float64) *FloatLP {
	n := len(mu)
	if n == 0 {
		return nil
	}
	lp := &FloatLP{Minimize: true, Obj: make([]float64, n)}
	for i := range lp.Obj {
		lp.Obj[i] = 1
	}
	for i := 0; i < n; i++ {
		coef := make([]float64, n)
		for j := range coef {
			coef[j] = -mu[i] * c0
		}
		coef[i] = 1 - mu[i]*c0
		lp.Cons = append(lp.Cons, FloatCon{Coef: coef, Rel: FloatGE, RHS: mu[i]*c1 + 2*float64(n)*mu[i]*c0})
	}
	for i := 0; i < n; i++ {
		coef := make([]float64, n)
		coef[i] = 1
		lp.Cons = append(lp.Cons, FloatCon{Coef: coef, Rel: FloatGE, RHS: 1})
	}
	return lp
}

// verifyAndTighten runs the exact acceptance gate. A candidate that
// verifies feasible but slack is tightened by exact operator descent:
// blocks ≥ F(blocks) implies F(blocks) ≥ F(F(blocks)) by monotonicity, so
// repeated application stays feasible, never increases, and terminates on
// a true fixed point. The returned result is always Verified.
func (f *Fast) verifyAndTighten(p *Problem, eta []int64, floatRounds, budget int) (*Result, bool) {
	v := Verify(p.Model, p.Granularity, eta)
	if !v.Feasible {
		return nil, false
	}
	rounds := floatRounds
	for !v.Tight {
		if rounds-floatRounds >= budget {
			return nil, false
		}
		next, err := p.Model.ApplyOperator(p.Granularity, eta)
		if err != nil {
			return nil, false
		}
		eta = next
		rounds++
		v = Verify(p.Model, p.Granularity, eta)
		if !v.Feasible {
			// Descent from a feasible point cannot leave the feasible set;
			// reaching here means arithmetic is wrong — refuse the plan.
			return nil, false
		}
	}
	res := &Result{Blocks: eta, Rounds: rounds, Path: PathFloat, Verified: true}
	for _, b := range eta {
		res.Total += b
	}
	return res, true
}
