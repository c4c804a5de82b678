package solve

import (
	"cmp"
	"math/big"
	"slices"
	"strings"

	"accelshare/internal/core"
)

// Cross-chain rebalance search over exact utilisation. PlanRebalance
// answers WHICH streams should move WHERE to shrink the fleet's utilisation
// spread; it ranks, sums and compares core.Load values (exact fractions in
// 64-bit words, with a big.Rat fallback) and runs no solver — per-chain
// feasibility of every move is re-proven later by the target controller's
// own AdmitMigrated solve + Verify (verify, don't trust). Keeping the
// search exact matters: a float ranking could order two chains differently
// than the admission model's exact compare and plan a move the target then
// rejects.

// one is the feasibility threshold Σ μs·c0 < 1.
var one = core.LoadOf(big.NewRat(1, 1))

// MoveCandidate is one movable stream offered to PlanRebalance.
type MoveCandidate struct {
	// Name identifies the stream in the returned moves.
	Name string
	// Chain indexes chains: where the stream currently runs.
	Chain int
	// Rate is the stream's throughput constraint μs in samples per second.
	// PlanRebalance only reads it, so it may be the model's own rate.
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
// the fleet's exact utilisation spread (max − min over chains). loads[c] is
// chains[c]'s utilisation, as its admission controller caches it. Greedy:
// take the hottest and coldest chains (ties broken by chain index), move
// the cheapest candidate (smallest residue, then name) that fits the
// coldest chain and strictly improves the spread, re-rank, repeat. Planning
// stops early when the spread reaches stopSpread (the zero Load = keep
// going while moves improve) — the hysteresis low-water mark, so a
// triggered rebalance drives the fleet well below the trigger threshold
// instead of oscillating around it. Neither the chains' models nor the
// caller's slices are mutated, and the allocations do not grow with the
// number of candidates.
//
//accellint:noalloc guard=TestPlanRebalanceZeroAllocPerCandidate
func PlanRebalance(chains []*core.System, loads []core.Load, cands []MoveCandidate, maxMoves int, stopSpread core.Load) []Move {
	if len(chains) < 2 || len(cands) == 0 || maxMoves <= 0 {
		return nil
	}
	//accellint:alloc the plan's working loads, one per chain
	util := append([]core.Load(nil), loads...)
	// Work on a private copy ordered (residue, name): the victim-selection
	// policy is baked into the scan order.
	//accellint:alloc the plan's working candidates, one copy per plan
	cs := append([]MoveCandidate(nil), cands...)
	slices.SortStableFunc(cs, byResidue)

	var moves []Move
	for len(moves) < maxMoves {
		spread := spreadOf(util)
		if spread.Cmp(stopSpread) <= 0 {
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
			addTo := chains[cold].StreamLoad(cs[i].Rate)
			if util[cold].Add(addTo).Cmp(one) >= 0 {
				continue // would overload the coldest chain
			}
			hotWas, coldWas := util[hot], util[cold]
			util[hot] = hotWas.Sub(chains[hot].StreamLoad(cs[i].Rate))
			util[cold] = coldWas.Add(addTo)
			if spreadOf(util).Cmp(spread) >= 0 {
				// No strict improvement (the move overshoots, inverting the
				// imbalance, or c0 asymmetry eats the gain): undo and try the
				// next candidate.
				util[hot], util[cold] = hotWas, coldWas
				continue
			}
			//accellint:alloc the plan itself, at most maxMoves entries
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

// byResidue orders candidates smallest residue first, then by name.
func byResidue(a, b MoveCandidate) int {
	if by := cmp.Compare(a.Residue, b.Residue); by != 0 {
		return by
	}
	return strings.Compare(a.Name, b.Name)
}

// spreadOf is max − min over the chains' loads.
func spreadOf(util []core.Load) core.Load {
	lo, hi := util[0], util[0]
	for _, u := range util[1:] {
		if u.Cmp(lo) < 0 {
			lo = u
		}
		if u.Cmp(hi) > 0 {
			hi = u
		}
	}
	return hi.Sub(lo)
}
