package solve

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"accelshare/internal/core"
)

// FuzzSolveDifferential holds the production stack's warm start to a cold
// exact solve on randomly generated problems. Default is handed, as
// Problem.Prev, the committed blocks of either a sub-set of the streams
// (an addition, which Incremental reuses) or a super-set (a removal, which
// it must answer by restarting cold). Either way it must reach the same
// verdict as Exact without Prev: infeasible exactly when Exact is, and
// otherwise the same blocks, which Verify finds feasible and tight.
//
// Exact-side round-budget exhaustion is skipped, not failed: the property
// under test is agreement on decided instances.
func FuzzSolveDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint64(1))
	f.Add(uint8(4), uint8(10), uint64(42))
	f.Add(uint8(12), uint8(40), uint64(7))
	f.Add(uint8(31), uint8(200), uint64(123456789))
	f.Add(uint8(8), uint8(255), uint64(0))  // heavy load: often infeasible
	f.Add(uint8(8), uint8(90), uint64(100)) // super-set prior: cold restart
	f.Fuzz(func(t *testing.T, nRaw, loadRaw uint8, seed uint64) {
		n := 1 + int(nRaw)%32
		// load/128 ≈ target utilisation; loadRaw > 128 drives infeasible
		// instances so both sides of the status agreement get exercised.
		load := int64(loadRaw)
		if load == 0 {
			load = 1
		}
		rng := rand.New(rand.NewSource(int64(seed)))

		sys := &core.System{
			Chain: core.Chain{
				Name:       "fuzz",
				AccelCosts: []uint64{uint64(1 + rng.Intn(8))},
				EntryCost:  uint64(1 + rng.Intn(4)),
				ExitCost:   uint64(1 + rng.Intn(4)),
				NICapacity: 2,
			},
			ClockHz: 1_000_000,
		}
		c0 := sys.Chain.C0()
		var gran []int64
		withGran := rng.Intn(2) == 0
		// One stream more than the instance: the super-set's extra member.
		for i := 0; i <= n; i++ {
			// Per-stream utilisation share ≈ load/(128·n), jittered ±50%,
			// so μ·c0 sums to ≈ load/128 across the set. Exact rational
			// construction: rate = ClockHz·load·jitter / (128·n·c0·100).
			jitter := int64(50 + rng.Intn(101))
			rate := big.NewRat(sys.ClockHz*load*jitter, 128*int64(n)*int64(c0)*100)
			sys.Streams = append(sys.Streams, core.Stream{
				Name:     fmt.Sprintf("f%02d", i),
				Rate:     rate,
				Reconfig: uint64(1 + rng.Intn(200)),
			})
			if withGran {
				gran = append(gran, int64(1)<<rng.Intn(4))
			}
		}
		// The prior model: the first k streams, or all n+1.
		k := n + 1
		if rng.Intn(2) == 0 {
			k = rng.Intn(n + 1)
		}
		prior := sys.Clone()
		prior.Streams = prior.Streams[:k]
		var priorGran []int64
		if gran != nil {
			priorGran = gran[:k]
		}
		sys.Streams = sys.Streams[:n]
		if gran != nil {
			gran = gran[:n]
		}

		var prev []Assignment
		if pRes, err := (&Exact{}).Solve(&Problem{Model: prior, Granularity: priorGran}); err == nil {
			for i, st := range prior.Streams {
				prev = append(prev, Assignment{Name: st.Name, Block: pRes.Blocks[i]})
			}
		}

		cold, cErr := (&Exact{}).Solve(&Problem{Model: sys, Granularity: gran})
		if errors.Is(cErr, core.ErrSolverBudget) {
			t.Skip("exact budget exhausted")
		}
		warm, wErr := Default(0, 0).Solve(&Problem{Model: sys, Granularity: gran, Prev: prev})

		if ci, wi := errors.Is(cErr, core.ErrInfeasible), errors.Is(wErr, core.ErrInfeasible); ci != wi {
			t.Fatalf("status disagreement: cold err=%v warm err=%v", cErr, wErr)
		}
		if cErr != nil {
			return // both rejected; nothing further to compare
		}
		if wErr != nil {
			t.Fatalf("cold solved (Σ=%d) but warm failed: %v", cold.Total, wErr)
		}
		if !reflect.DeepEqual(warm.Blocks, cold.Blocks) || warm.Total != cold.Total {
			t.Fatalf("warm %v (Σ=%d) != cold %v (Σ=%d), prior of %d streams",
				warm.Blocks, warm.Total, cold.Blocks, cold.Total, k)
		}
		if v := Verify(sys, gran, warm.Blocks); !v.Feasible || !v.Tight {
			t.Fatalf("warm plan rejected by exact verification (%+v): %v", v, warm.Blocks)
		}
	})
}
