package solve

import (
	"math/big"
	"sort"

	"accelshare/internal/core"
)

// Cross-chain rebalance search over exact utilisation. PlanRebalance
// answers WHICH streams should move WHERE to shrink the fleet's utilisation
// spread; it is a pure big.Rat computation with no solver run — per-chain
// feasibility of every move is re-proven later by the target controller's
// own AdmitMigrated solve + Verify (verify, don't trust). Keeping the
// search exact matters: a float ranking could order two chains differently
// than the admission model's big.Rat compare and plan a move the target
// then rejects.

// one is the feasibility threshold Σ μs·c0 < 1.
var one = big.NewRat(1, 1)

// AddedUtilization returns the exact utilisation a stream of the given
// rate (samples/second) would add to the chain: (rate/ClockHz)·c0.
func AddedUtilization(m *core.System, rate *big.Rat) *big.Rat {
	mu := new(big.Rat).Quo(rate, new(big.Rat).SetInt64(m.ClockHz))
	return mu.Mul(mu, new(big.Rat).SetInt64(int64(m.Chain.C0())))
}

// MoveCandidate is one movable stream offered to PlanRebalance.
type MoveCandidate struct {
	// Name identifies the stream in the returned moves.
	Name string
	// Chain indexes chains: where the stream currently runs.
	Chain int
	// Rate is the stream's throughput constraint μs in samples per second.
	Rate *big.Rat
	// Residue is the stream's pending replay residue in words. Victims are
	// picked smallest-residue-first: a checkpointing fleet bounds residue by
	// K, but a residue-free stream migrates with zero replay work, so the
	// cheapest moves happen first and a partial plan still helps.
	Residue int
}

// Move is one planned migration: stream Name from chains[From] to
// chains[To].
type Move struct {
	Name     string
	From, To int
}

// PlanRebalance plans at most maxMoves migrations that each strictly shrink
// the fleet's exact utilisation spread (max − min over chains). Greedy:
// take the hottest and coldest chains (ties broken by chain index), move
// the cheapest candidate (smallest residue, then name) that fits the
// coldest chain and strictly improves the spread, re-rank, repeat. Planning
// stops early when the spread reaches stopSpread (nil = keep going while
// moves improve) — the hysteresis low-water mark, so a triggered rebalance
// drives the fleet well below the trigger threshold instead of oscillating
// around it. The chains models are not mutated.
func PlanRebalance(chains []*core.System, cands []MoveCandidate, maxMoves int, stopSpread *big.Rat) []Move {
	if len(chains) < 2 || len(cands) == 0 || maxMoves <= 0 {
		return nil
	}
	util := make([]*big.Rat, len(chains))
	for c := range chains {
		util[c] = new(big.Rat).Set(chains[c].Utilization())
	}
	// Work on a private copy ordered (residue, name): the victim-selection
	// policy is baked into the scan order.
	cs := append([]MoveCandidate(nil), cands...)
	sort.SliceStable(cs, func(a, b int) bool {
		if cs[a].Residue != cs[b].Residue {
			return cs[a].Residue < cs[b].Residue
		}
		return cs[a].Name < cs[b].Name
	})

	spreadOf := func() *big.Rat {
		lo, hi := util[0], util[0]
		for _, u := range util[1:] {
			if u.Cmp(lo) < 0 {
				lo = u
			}
			if u.Cmp(hi) > 0 {
				hi = u
			}
		}
		return new(big.Rat).Sub(hi, lo)
	}

	var moves []Move
	for len(moves) < maxMoves {
		spread := spreadOf()
		if stopSpread != nil && spread.Cmp(stopSpread) <= 0 {
			break
		}
		hot, cold := 0, 0
		for c := 1; c < len(chains); c++ {
			if util[c].Cmp(util[hot]) > 0 {
				hot = c
			}
			if util[c].Cmp(util[cold]) < 0 {
				cold = c
			}
		}
		if hot == cold {
			break
		}
		moved := false
		for i := range cs {
			if cs[i].Chain != hot {
				continue
			}
			addTo := AddedUtilization(chains[cold], cs[i].Rate)
			if new(big.Rat).Add(util[cold], addTo).Cmp(one) >= 0 {
				continue // would overload the coldest chain
			}
			sub := AddedUtilization(chains[hot], cs[i].Rate)
			util[hot].Sub(util[hot], sub)
			util[cold].Add(util[cold], addTo)
			if spreadOf().Cmp(spread) >= 0 {
				// No strict improvement (the move overshoots, inverting the
				// imbalance, or c0 asymmetry eats the gain): undo and try the
				// next candidate.
				util[hot].Add(util[hot], sub)
				util[cold].Sub(util[cold], addTo)
				continue
			}
			moves = append(moves, Move{Name: cs[i].Name, From: hot, To: cold})
			cs[i].Chain = cold
			moved = true
			break
		}
		if !moved {
			break
		}
	}
	return moves
}
