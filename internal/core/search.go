package core

import (
	"math"

	"gameofcoins/internal/numeric"
)

// movable reports whether miner p, mining coin a on which the total power is
// held, has a better response step: an eligible coin b ≠ a with
//
//	m_p·F(b) / (others[b] + m_p)  >  m_p·F(a) / held
//
// beyond the game's epsilon, where others[b] is the power on b that p would
// join. With held = M_a(s) and others = CoinPowers(s) this is exactly "p is
// unstable in s"; IsEquilibrium and VisitEquilibria's leaf check both call
// it that way, and VisitEquilibria's prune test calls it with bounds.
func (g *Game) movable(p MinerID, a CoinID, held float64, others []float64) bool {
	mp := g.miners[p].Power
	cur := mp * g.rewards[a] / held
	for b := range g.coins {
		if b == a || !g.Eligible(p, b) {
			continue
		}
		if numeric.Greater(mp*g.rewards[b]/(others[b]+mp), cur, g.eps) {
			return true
		}
	}
	return false
}

// pruneMargin inflates the upper bound on a coin's final power so that it
// covers float summation error; see VisitEquilibria.
const pruneMargin = 1e-12

// VisitEquilibria calls visit for every pure equilibrium of g, in the
// lexicographic order of EnumerateConfigs, and stops early if visit returns
// false. It returns ErrTooLarge exactly when EnumerateConfigs does. visit
// must not retain or modify its argument; clone it to keep it.
//
// The result is the subset of EnumerateConfigs's sequence on which
// IsEquilibrium holds, found by a depth-first search that places miners
// p = 0..n−1 and cuts subtrees that contain no equilibrium:
//
//   - The search keeps the coin powers of the placed prefix, adding m_p in
//     the p = 0..n−1 order CoinPowers uses, so at each leaf the powers equal
//     CoinPowers(s) bit for bit, and the leaf check (movable for every
//     miner, newest first, as those fail most often) computes exactly what
//     IsEquilibrium computes. No profile allocates.
//   - At an inner node, let P be the prefix powers and R the power of the
//     unplaced miners. The search cuts the subtree when the miner just
//     placed, p on coin a, is movable even in the completion most
//     favourable to staying: nothing more joins a, and all of R joins every
//     other coin b. The test is movable(p, a, P_a, U) with
//     U_b = (P_b + R)·(1 + pruneMargin).
//
// The cut is sound: when the test holds at a node, movable(p, a, M_a, M)
// holds at every leaf below it, with M the leaf's powers, so no leaf below
// is an equilibrium. For each b the test compares dev = fl(m_p·F(b)/(U_b+m_p))
// with cur = fl(m_p·F(a)/P_a), and the leaf compares dev' and cur' built
// the same way from M_b and M_a.
//
//  1. M_a ≥ P_a: M_a is P_a plus further positive terms, and a rounded sum
//     of non-negative floats never falls below either operand.
//  2. M_b ≤ U_b: M_b is P_b plus a subset of the unplaced powers, so in real
//     arithmetic it is at most P_b + R, and the rounding in M_b, in R and in
//     U_b itself is below (2r+2)·2⁻⁵³ relative for r ≤ 22 unplaced miners,
//     far inside the margin (a search with two or more coins has n ≤ 22 by
//     the MaxExhaustiveConfigs bound; sums of subnormal powers are exact).
//  3. IEEE +, * and / round monotonically, so dev ≤ dev' and cur ≥ cur'.
//  4. numeric.Greater(x, y, eps) stays true when x grows and y shrinks, for
//     finite x, y ≥ 0 and 0 ≤ eps ≤ 1/4 (see its doc comment). The cut is
//     therefore disabled when eps > 1/4 or when some m_p·F(c)/m_p, which
//     bounds every payoff the search compares, overflows.
func (g *Game) VisitEquilibria(visit func(Config) bool) error {
	if err := g.checkExhaustive(); err != nil {
		return err
	}
	n := len(g.miners)
	s := make(Config, n)
	powers := make([]float64, len(g.coins))
	bound := make([]float64, len(g.coins))
	// rest[d] is the power of miners d..n−1, the ones not yet placed at depth d.
	rest := make([]float64, n+1)
	for d := n - 1; d >= 0; d-- {
		rest[d] = g.miners[d].Power + rest[d+1]
	}
	prune := g.pruneSound()
	var place func(d int) bool
	place = func(d int) bool {
		if d == n {
			for p := n - 1; p >= 0; p-- {
				if g.movable(p, s[p], powers[s[p]], powers) {
					return true
				}
			}
			return visit(s)
		}
		mp := g.miners[d].Power
		for a := range g.coins {
			if !g.Eligible(d, a) {
				continue
			}
			held := powers[a]
			s[d] = a
			powers[a] = held + mp
			cut := false
			if prune && d+1 < n {
				for b, pb := range powers {
					bound[b] = (pb + rest[d+1]) * (1 + pruneMargin)
				}
				cut = g.movable(d, a, powers[a], bound)
			}
			more := cut || place(d+1)
			powers[a] = held
			if !more {
				return false
			}
		}
		return true
	}
	place(0)
	return nil
}

// pruneSound reports whether VisitEquilibria's cut is sound for g (step 4
// of its argument): eps ≤ 1/4, and m_p·F(c)/m_p is finite for every miner
// and coin, so every payoff the search compares is finite.
func (g *Game) pruneSound() bool {
	if !(g.eps <= 0.25) {
		return false
	}
	for _, m := range g.miners {
		for _, f := range g.rewards {
			if math.IsInf(m.Power*f/m.Power, 0) {
				return false
			}
		}
	}
	return true
}
