package solve

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"accelshare/internal/core"
	"accelshare/internal/ilp"
)

// oracleNodes is the branch-and-bound budget the ILP oracle gets in
// FuzzExactMatchesILPOracle. Near saturation the tree is deep, so the
// oracle decides mostly small, loosely loaded instances; the others are
// held to the properties that need no oracle. One node is a dense big.Rat
// LP solve costing about n³ (0.1 s at 24 streams), so instances above
// oracleFullMax streams get two nodes: the root LP, which is the
// infeasibility verdict, and one branch. Above oracleMax streams the
// oracle does not run at all.
const (
	oracleNodes   = 20
	oracleFullMax = 12
	oracleMax     = 24
)

// saturatedInstance builds an n-stream chain whose exact utilisation
// Σ μs·c0 is rho: stream s gets the share w_s/Σw of it for random weights,
// with random reconfiguration costs and, when granular, random power-of-two
// granularities up to 8.
func saturatedInstance(rng *rand.Rand, n int, rho *big.Rat, granular bool) (*core.System, []int64) {
	sys := &core.System{
		Chain: core.Chain{
			Name:       "oracle",
			AccelCosts: []uint64{uint64(1 + rng.Intn(8))},
			EntryCost:  uint64(1 + rng.Intn(16)),
			ExitCost:   uint64(1 + rng.Intn(4)),
			NICapacity: 2,
		},
		ClockHz: 1_000_000,
	}
	weights := make([]int64, n)
	var total int64
	for i := range weights {
		weights[i] = int64(1 + rng.Intn(100))
		total += weights[i]
	}
	var gran []int64
	for i, w := range weights {
		// μs·c0 = rho·w/total, so Rate = ClockHz·rho·w / (total·c0).
		rate := new(big.Rat).Mul(rho, big.NewRat(sys.ClockHz*w, total*int64(sys.Chain.C0())))
		sys.Streams = append(sys.Streams, core.Stream{
			Name:     fmt.Sprintf("o%02d", i),
			Rate:     rate,
			Reconfig: uint64(1 + rng.Intn(500)),
		})
		if granular {
			gran = append(gran, int64(1)<<rng.Intn(4))
		}
	}
	return sys, gran
}

// checkExact solves one instance on the exact path and checks what needs
// no oracle: infeasible exactly when utilisation ≥ 1, otherwise a plan that
// Verify finds feasible and tight, with the relaxation seed componentwise
// below it. It returns nil for infeasible instances.
func checkExact(t *testing.T, sys *core.System, gran []int64) *Result {
	t.Helper()
	res, err := (&Exact{}).Solve(&Problem{Model: sys, Granularity: gran})
	saturated := sys.Utilization().Cmp(big.NewRat(1, 1)) >= 0
	if saturated || errors.Is(err, core.ErrInfeasible) {
		if !saturated || !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("utilisation %s: exact err = %v", sys.Utilization().RatString(), err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("exact path: %v", err)
	}
	seed, err := sys.RelaxationSeed(gran)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seed {
		if seed[i] > res.Blocks[i] {
			t.Fatalf("seed %v exceeds the least fixed point %v at stream %d", seed, res.Blocks, i)
		}
	}
	if v := Verify(sys, gran, res.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("exact plan fails Verify: %+v", v)
	}
	return res
}

// FuzzExactMatchesILPOracle generates plain and granular instances with up
// to 64 streams and utilisation up to 1.2 (so past saturation too).
// checkExact holds every instance to the properties that need no oracle:
// the relaxation seed never exceeds the least fixed point, the plan passes
// Verify feasible and tight, and the seeded iteration never runs out of
// rounds (checkExact fails on any exact-path error but infeasibility). Up
// to oracleMax streams the exact path is also held to the ILP oracle: both
// sides reach the same infeasible verdict, and the blocks agree whenever
// the oracle decides within its node budget.
func FuzzExactMatchesILPOracle(f *testing.F) {
	f.Add(uint8(0), uint32(500_000), int64(1), false)
	f.Add(uint8(1), uint32(500_000), int64(1), true)
	f.Add(uint8(2), uint32(300_000), int64(7), false)
	f.Add(uint8(3), uint32(300_000), int64(7), true)
	f.Add(uint8(5), uint32(500_000), int64(11), false)
	f.Add(uint8(11), uint32(990_000), int64(42), true)  // oracle undecided
	f.Add(uint8(7), uint32(1_000_000), int64(5), false) // exactly saturated
	f.Add(uint8(15), uint32(1_150_000), int64(9), true)
	f.Add(uint8(31), uint32(500_000), int64(3), false) // 32 streams: no oracle
	f.Add(uint8(63), uint32(999_000), int64(13), true)
	f.Fuzz(func(t *testing.T, nRaw uint8, ppm uint32, seed int64, granular bool) {
		n := 1 + int(nRaw)%64
		rho := big.NewRat(max(int64(ppm%1_200_001), 1), 1_000_000)
		sys, gran := saturatedInstance(rand.New(rand.NewSource(seed)), n, rho, granular)
		res := checkExact(t, sys, gran)
		if n > oracleMax {
			return
		}
		nodes := oracleNodes
		if n > oracleFullMax {
			nodes = 2
		}
		want, err := ilpOracle(sys, gran, nodes)
		switch {
		case errors.Is(err, ilp.ErrBranchBudget):
			return // undecided: nothing to compare
		case errors.Is(err, ilp.ErrInfeasible):
			if res != nil {
				t.Fatalf("oracle infeasible, exact path found %v", res.Blocks)
			}
		case err != nil:
			t.Fatalf("ILP oracle: %v", err)
		case res == nil:
			t.Fatalf("exact path infeasible, oracle found %v", want)
		case !reflect.DeepEqual(res.Blocks, want):
			t.Fatalf("exact %v != ILP oracle %v", res.Blocks, want)
		}
	})
}

// TestSeededIterationNearSaturation pins how many rounds the seeded
// iteration needs as utilisation approaches 1, where a cold start from
// all-ones needs on the order of 1/(1−ρ) rounds: 20 instances of up to 24
// streams per level, alternately plain and granular, each checked by
// checkExact.
func TestSeededIterationNearSaturation(t *testing.T) {
	const roundCeiling = 300
	rng := rand.New(rand.NewSource(2015))
	for _, ppm := range []int64{900_000, 990_000, 999_000, 999_900} {
		rho := big.NewRat(ppm, 1_000_000)
		worst := 0
		for i := 0; i < 20; i++ {
			sys, gran := saturatedInstance(rng, 1+rng.Intn(24), rho, i%2 == 1)
			if res := checkExact(t, sys, gran); res.Rounds > worst {
				worst = res.Rounds
			}
		}
		t.Logf("ρ=%s: at most %d rounds", rho.FloatString(4), worst)
		if worst > roundCeiling {
			t.Errorf("ρ=%s: seeded iteration needed %d rounds, ceiling %d", rho.FloatString(4), worst, roundCeiling)
		}
	}
}
