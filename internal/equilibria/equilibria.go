// Package equilibria provides equilibrium tooling for the mining game:
//
//   - Construct: Appendix A's constructive proof of equilibrium existence —
//     add miners in descending power, each choosing its myopically best coin;
//     the resulting configuration is stable (Proposition 3).
//   - TwoDistinct: Lemma 2's construction of two different equilibria for
//     games satisfying Assumptions 1–2.
//   - Enumerate: every equilibrium of a small game, by a pruned search
//     whose result equals the exhaustive one.
//   - BetterEquilibriumFor: Proposition 2's guarantee — for every stable s
//     there is a miner p and a stable s' with u_p(s') > u_p(s).
package equilibria

import (
	"errors"
	"fmt"
	"sort"

	"gameofcoins/internal/core"
)

// ErrNotStable is returned by constructions whose assumptions failed to
// deliver a stable configuration (e.g. TwoDistinct on a game violating
// Assumption 1 or 2).
var ErrNotStable = errors.New("equilibria: constructed configuration is not stable")

// ErrNoBetter is returned by BetterEquilibriumFor when no dominating
// equilibrium exists — impossible under Assumptions 1–2 (Proposition 2) but
// reachable for games outside those assumptions.
var ErrNoBetter = errors.New("equilibria: no equilibrium improves any miner")

// Construct builds a pure equilibrium of g by the Appendix-A induction:
// miners join in descending power order (the Game's native order), each
// picking the coin maximizing its payoff given the miners placed so far:
//
//	c = argmax_{c'} F(c') · m_p / (M_{c'}(s) + m_p)
//
// Claim 6 shows each addition preserves stability, so the result is a pure
// equilibrium. For eligibility-restricted games the argmax ranges over the
// miner's eligible coins only; stability of the result is then checked and
// ErrNotStable returned if the restriction broke the induction.
func Construct(g *core.Game) (core.Config, error) {
	s := make(core.Config, g.NumMiners())
	if err := extend(g, s, make([]float64, g.NumCoins()), 0); err != nil {
		return nil, err
	}
	if g.Restricted() && !g.IsEquilibrium(s) {
		return nil, fmt.Errorf("%w: greedy construction under eligibility restrictions", ErrNotStable)
	}
	return s, nil
}

// extend places miners from..n−1 of s in order, each on the eligible coin
// maximizing its payoff F(c)·m_p/(M_c + m_p) given the miners placed before
// it (ties to the lowest CoinID); powers holds those miners' coin powers
// and is updated in place.
func extend(g *core.Game, s core.Config, powers []float64, from core.MinerID) error {
	for p := from; p < len(s); p++ {
		mp := g.Power(p)
		best := -1
		bestU := 0.0
		for c := 0; c < g.NumCoins(); c++ {
			if !g.Eligible(p, c) {
				continue
			}
			u := g.Reward(c) * mp / (powers[c] + mp)
			if best == -1 || u > bestU {
				best, bestU = c, u
			}
		}
		if best == -1 {
			return fmt.Errorf("equilibria: miner %d has no eligible coin", p)
		}
		s[p] = best
		powers[best] += mp
	}
	return nil
}

// TwoDistinct builds two different pure equilibria of g following Lemma 2:
// seed the two largest miners on the two highest-reward coins in opposite
// orders, then extend greedily over eligible coins as in Construct. It
// requires at least two miners and two coins, and the stability of both
// results relies on Assumptions 1–2; if a seed coin is ineligible for its
// miner or either constructed configuration ends up unstable, ErrNotStable
// is returned.
func TwoDistinct(g *core.Game) (core.Config, core.Config, error) {
	if g.NumMiners() < 2 || g.NumCoins() < 2 {
		return nil, nil, errors.New("equilibria: TwoDistinct needs ≥2 miners and ≥2 coins")
	}
	// Coins sorted by decreasing reward.
	order := make([]core.CoinID, g.NumCoins())
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(i, j int) bool { return g.Reward(order[i]) > g.Reward(order[j]) })
	c1, c2 := order[0], order[1]

	build := func(first, second core.CoinID) (core.Config, error) {
		if !g.Eligible(0, first) || !g.Eligible(1, second) {
			return nil, fmt.Errorf("%w: miners 0 and 1 cannot be seeded on c%d and c%d", ErrNotStable, first, second)
		}
		s := make(core.Config, g.NumMiners())
		powers := make([]float64, g.NumCoins())
		s[0], s[1] = first, second
		powers[first] += g.Power(0)
		powers[second] += g.Power(1)
		return s, extend(g, s, powers, 2)
	}

	sA, err := build(c1, c2)
	if err != nil {
		return nil, nil, err
	}
	sB, err := build(c2, c1)
	if err != nil {
		return nil, nil, err
	}
	if sA.Equal(sB) {
		return nil, nil, fmt.Errorf("%w: constructions coincide", ErrNotStable)
	}
	if !g.IsEquilibrium(sA) {
		return nil, nil, fmt.Errorf("%w: first construction %v", ErrNotStable, sA)
	}
	if !g.IsEquilibrium(sB) {
		return nil, nil, fmt.Errorf("%w: second construction %v", ErrNotStable, sB)
	}
	return sA, sB, nil
}

// Enumerate returns every pure equilibrium of g in lexicographic order. It
// is core.Game.VisitEquilibria keeping a copy of each hit: a depth-first
// search that cuts subtrees in which a placed miner is unstable in every
// completion. The result is exactly the configurations of EnumerateConfigs
// on which IsEquilibrium holds, in the same order. The search is still
// exponential in the worst case and restricted to small games; it returns
// core.ErrTooLarge beyond the enumeration limit.
//
// The configurations share a few backing arrays, blocks that each hold a
// third as many as the blocks before them (8 at least), so the hits are
// copied once and take at most 4/3 of their size beyond the first block.
// Each configuration is capped at its own length, so appending to one
// copies it, as it would a clone.
func Enumerate(g *core.Game) ([]core.Config, error) {
	n := g.NumMiners()
	var list [16][]core.CoinID // the blocks, on the stack while they fit
	blocks, hits := list[:0], 0
	if err := g.VisitEquilibria(func(s core.Config) bool {
		if len(blocks) == 0 || cap(blocks[len(blocks)-1])-len(blocks[len(blocks)-1]) < n {
			blocks = append(blocks, make([]core.CoinID, 0, n*max(8, hits/3)))
		}
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], s...)
		hits++
		return true
	}); err != nil {
		return nil, err
	}
	if hits == 0 {
		return nil, nil
	}
	out := make([]core.Config, 0, hits)
	for _, b := range blocks {
		for i := 0; i < len(b); i += n {
			out = append(out, b[i:i+n:i+n])
		}
	}
	return out, nil
}

// Improvement is a Proposition 2 witness: miner Miner strictly prefers the
// equilibrium Better over the reference equilibrium.
type Improvement struct {
	Miner  core.MinerID
	Better core.Config
	Gain   float64 // u_p(Better) − u_p(reference) > 0
}

// BetterEquilibriumFor finds, for the stable configuration s, a miner and a
// different stable configuration in which that miner's payoff is strictly
// higher (Proposition 2). The search enumerates all equilibria, so it is
// limited to small games. A malformed s returns ValidateConfig's error. If
// s is the unique equilibrium or no miner improves anywhere, ErrNoBetter is
// returned — which, per Proposition 2, certifies that g violates
// Assumption 1 or 2.
func BetterEquilibriumFor(g *core.Game, s core.Config) (Improvement, error) {
	if err := g.ValidateConfig(s); err != nil {
		return Improvement{}, err
	}
	if !g.IsEquilibrium(s) {
		return Improvement{}, fmt.Errorf("equilibria: reference %v is not stable", s)
	}
	eqs, err := Enumerate(g)
	if err != nil {
		return Improvement{}, err
	}
	base := g.Payoffs(s)
	bestGain := 0.0
	var best Improvement
	found := false
	for _, e := range eqs {
		if e.Equal(s) {
			continue
		}
		us := g.Payoffs(e)
		for p := range us {
			if gain := us[p] - base[p]; gain > bestGain {
				found = true
				bestGain = gain
				best = Improvement{Miner: p, Better: e, Gain: gain}
			}
		}
	}
	if !found {
		return Improvement{}, ErrNoBetter
	}
	// A copy of its own, so that Better does not hold every equilibrium's
	// backing array alive.
	best.Better = best.Better.Clone()
	return best, nil
}
