// Package potential implements the potential-function machinery of
// "Game of Coins":
//
//   - Theorem 1's ordinal potential: the lexicographically ordered list of
//     ⟨RPU_c(s), c⟩ pairs, whose rank in the ordered set of all lists strictly
//     increases along every better-response step;
//   - Appendix B's closed-form ordinal potential Σ_c 1/M_c(s) for the
//     symmetric case (all coin rewards equal);
//   - Proposition 1's exact-potential refutation: a searcher for unilateral
//     4-cycles whose payoff-change sum is non-zero, which by Monderer &
//     Shapley (1996) certifies that no exact potential exists.
//
// The paper defines the ordinal potential H(s) as the *rank* of list(s) in
// the ordered set L of all lists. Ranks require materializing L (exponential
// in |Π|), but the ordering they induce is exactly the lexicographic order
// on lists, so the library exposes the comparator Less; the tests
// materialize ranks for small games to confirm the two views agree.
package potential

import (
	"math"
	"sort"

	"gameofcoins/internal/core"
)

// ListEntry is one element of list(s): the pair ⟨RPU_c(s), c⟩.
type ListEntry struct {
	RPU  float64
	Coin core.CoinID
}

// List returns list(s): the coins of g with their RPUs in s, sorted
// lexicographically from smallest to largest (by RPU, ties by coin ID).
// Empty coins carry RPU = +Inf and therefore sort last.
func List(g *core.Game, s core.Config) []ListEntry {
	rpus := g.RPUs(s)
	out := make([]ListEntry, len(rpus))
	for c, r := range rpus {
		out[c] = ListEntry{RPU: r, Coin: c}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RPU != out[j].RPU {
			return out[i].RPU < out[j].RPU
		}
		return out[i].Coin < out[j].Coin
	})
	return out
}

// Compare lexicographically compares two lists of equal length, returning
// -1, 0, or +1. Entries compare by (RPU, Coin). Comparing lists from
// different games (different lengths) is a programming error and panics.
func Compare(a, b []ListEntry) int {
	if len(a) != len(b) {
		panic("potential: comparing lists of different games")
	}
	for i := range a {
		switch {
		case a[i].RPU < b[i].RPU:
			return -1
		case a[i].RPU > b[i].RPU:
			return 1
		case a[i].Coin < b[i].Coin:
			return -1
		case a[i].Coin > b[i].Coin:
			return 1
		}
	}
	return 0
}

// Less reports whether list(s) < list(s') in the ordinal-potential order.
// Theorem 1 states this strictly increases along every better-response step.
func Less(g *core.Game, s, sp core.Config) bool {
	return Compare(List(g, s), List(g, sp)) < 0
}

// SymmetricPotential returns Appendix B's potential H(s) = Σ_c 1/M_c(s),
// summing over occupied coins, together with the number of empty coins.
// An empty coin contributes the limit 1/0 = +Inf to the paper's sum; rather
// than collapsing configurations with any empty coin to a single +Inf value,
// the pair (Empty, Sum) carries the full order: in symmetric games a better
// response never vacates a coin (a lone miner already earns the coin's full
// reward), so Empty never increases, and Proposition 4's algebra shows Sum
// strictly decreases whenever Empty is unchanged. SymmetricLess implements
// that lexicographic comparison.
func SymmetricPotential(g *core.Game, s core.Config) (sum float64, empty int) {
	for _, m := range g.CoinPowers(s) {
		if m == 0 {
			empty++
			continue
		}
		sum += 1 / m
	}
	return sum, empty
}

// SymmetricLess reports whether the Appendix-B potential of sp is strictly
// below that of s, i.e. whether s → sp is consistent with a better-response
// step in a symmetric game.
func SymmetricLess(g *core.Game, s, sp core.Config) bool {
	sum, empty := SymmetricPotential(g, s)
	sumP, emptyP := SymmetricPotential(g, sp)
	if emptyP != empty {
		return emptyP < empty
	}
	return sumP < sum
}

// CycleWitness is a closed 4-cycle of unilateral deviations by two miners
// whose payoff-change sum is non-zero — a certificate that the game has no
// exact potential (Monderer & Shapley 1996, Theorem 2.8).
//
// The cycle visits, starting from Base:
//
//	s¹ = Base  →(P moves to CoinP)  s² →(Q moves to CoinQ) s³
//	   →(P moves back)             s⁴ →(Q moves back)      s¹
type CycleWitness struct {
	Base         core.Config
	P, Q         core.MinerID
	CoinP, CoinQ core.CoinID // destinations of the two deviations
	Sum          float64     // Σ payoff changes around the cycle (≠ 0)
}

// CycleSum computes the payoff-change sum around the 4-cycle described by w
// in game g. A game with an exact potential has sum 0 for every such cycle.
func CycleSum(g *core.Game, w CycleWitness) float64 {
	s1 := w.Base
	s2 := g.Apply(s1, w.P, w.CoinP)
	s3 := g.Apply(s2, w.Q, w.CoinQ)
	s4 := g.Apply(s3, w.P, s1[w.P])
	// Changes: P: s1→s2 and s3→s4; Q: s2→s3 and s4→s1.
	return (g.Payoff(s2, w.P) - g.Payoff(s1, w.P)) +
		(g.Payoff(s3, w.Q) - g.Payoff(s2, w.Q)) +
		(g.Payoff(s4, w.P) - g.Payoff(s3, w.P)) +
		(g.Payoff(s1, w.Q) - g.Payoff(s4, w.Q))
}

// FindExactPotentialViolation searches for a 4-cycle with non-zero payoff
// sum, proving g has no exact potential (Proposition 1 generalized). It
// scans all miner pairs and coin pairs starting from the configuration where
// everyone mines coin 0, plus all-pairs over a caller-provided base, and
// returns the first witness whose |sum| exceeds tol, or nil if none found.
func FindExactPotentialViolation(g *core.Game, base core.Config, tol float64) *CycleWitness {
	n, m := g.NumMiners(), g.NumCoins()
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			for cp := 0; cp < m; cp++ {
				if cp == base[p] || !g.Eligible(p, cp) {
					continue
				}
				for cq := 0; cq < m; cq++ {
					if cq == base[q] || !g.Eligible(q, cq) {
						continue
					}
					w := CycleWitness{Base: base, P: p, Q: q, CoinP: cp, CoinQ: cq}
					if sum := CycleSum(g, w); math.Abs(sum) > tol {
						w.Sum = sum
						return &w
					}
				}
			}
		}
	}
	return nil
}
