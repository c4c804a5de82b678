package solve

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"accelshare/internal/core"
)

// FuzzSolveDifferential cross-checks the float fast path against the exact
// path on randomly generated problems:
//
//   - statuses must agree — the fast path's feasibility gate is the same
//     exact utilisation comparison, so it must call infeasible exactly when
//     the exact path does;
//   - every plan the fast path returns must pass exact big.Rat
//     verification (feasible AND tight), and its total can never undercut
//     the exact optimum.
//
// Exact-side round-budget exhaustion is skipped, not failed: the property
// under test is agreement on decided instances.
func FuzzSolveDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint64(1))
	f.Add(uint8(4), uint8(10), uint64(42))
	f.Add(uint8(12), uint8(40), uint64(7))
	f.Add(uint8(31), uint8(200), uint64(123456789))
	f.Add(uint8(8), uint8(255), uint64(0)) // heavy load: often infeasible
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
		for i := 0; i < n; i++ {
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

		exact := &Exact{}
		fast := &Fast{} // no fallback: disagreements surface as errors

		eRes, eErr := exact.Solve(&Problem{Model: sys, Granularity: gran})
		if errors.Is(eErr, core.ErrSolverBudget) {
			t.Skip("exact budget exhausted")
		}
		fRes, fErr := fast.Solve(&Problem{Model: sys, Granularity: gran})

		if ei, fi := errors.Is(eErr, core.ErrInfeasible), errors.Is(fErr, core.ErrInfeasible); ei != fi {
			t.Fatalf("status disagreement: exact err=%v fast err=%v", eErr, fErr)
		}
		if eErr != nil {
			return // both rejected; nothing further to compare
		}
		if fErr != nil {
			t.Fatalf("exact solved (Σ=%d) but fast failed: %v", eRes.Total, fErr)
		}
		if !fRes.Verified {
			t.Fatalf("fast result not marked verified")
		}
		v := Verify(sys, gran, fRes.Blocks)
		if !v.Feasible || !v.Tight {
			t.Fatalf("fast plan rejected by exact verification (%+v): %v", v, fRes.Blocks)
		}
		if fRes.Total < eRes.Total {
			t.Fatalf("fast total %d undercuts exact optimum %d — exact side is not minimal?",
				fRes.Total, eRes.Total)
		}
	})
}
