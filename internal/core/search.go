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
// unstable in s"; IsStable and IsEquilibrium call it that way, and
// VisitEquilibria runs the same test as gains.
func (g *Game) movable(p MinerID, a CoinID, held float64, others []float64) bool {
	return g.nextMove(p, a, held, others, 0, len(g.coins)) < len(g.coins)
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
// p = 0..n−1 and cuts subtrees that contain no equilibrium. The search is
// one loop over the depth d: s[d] is miner d's coin, or −1 before it has
// tried one, and each step moves miner d to its next eligible coin, or
// backs up to d−1 when it has none left.
//
//   - The search keeps the coin powers of the placed prefix, adding m_p in
//     the p = 0..n−1 order CoinPowers uses, so at each leaf the powers equal
//     CoinPowers(s) bit for bit. pay[p·k+c] holds m_p·F(c), the product
//     share rounds first, so pay[p·k+c]/M is share(m_p, F(c), M) bit for
//     bit, and the leaf check (gains for every miner, newest first, as
//     those fail most often) computes exactly what IsEquilibrium computes.
//     The search allocates the profile and one scratch array.
//   - At an inner node, let P be the prefix powers and R the power of the
//     unplaced miners. The search cuts the subtree when the miner just
//     placed, p on coin a, is movable even in the completion most
//     favourable to staying: nothing more joins a, and all of R joins every
//     other coin b. The test is gains with held = P_a and
//     others = U, U_b = fl((P_b + R)·(1 + pruneMargin)).
//
// The cut is sound: when the test holds at a node, movable(p, a, M_a, M)
// holds at every leaf below it, with M the leaf's powers, so no leaf below
// is an equilibrium. For each b the test compares
// dev = fl(pay_pb / fl(U_b + m_p)) with cur = fl(pay_pa / P_a), and the leaf
// compares dev' and cur' built the same way from M_b and M_a.
//
//  1. M_a ≥ P_a: M_a is P_a plus further positive terms, and a rounded sum
//     of non-negative floats never falls below either operand.
//  2. M_b ≤ U_b: M_b is P_b plus a subset of the unplaced powers, so in real
//     arithmetic it is at most P_b + R, and the rounding in M_b, in R and in
//     U_b itself is below (2r+2)·2⁻⁵³ relative for r ≤ 22 unplaced miners,
//     far inside the margin (a search with two or more coins has n ≤ 22 by
//     the MaxExhaustiveConfigs bound; sums of subnormal powers are exact).
//     U_b is rounded before m_p is added: the float64 conversion keeps the
//     compiler from fusing the product and the sum into one rounding.
//  3. IEEE +, * and / round monotonically, so dev ≤ dev' and cur ≥ cur'.
//  4. numeric.Greater(x, y, eps) stays true when x grows and y shrinks, for
//     finite x, y ≥ 0 and 0 ≤ eps ≤ 1/4 (see its doc comment). The cut is
//     therefore disabled when eps > 1/4 or when some m_p·F(c)/m_p, which
//     bounds every payoff the search compares, overflows. A coin p may not
//     mine has pay_pb = NaN, which fails Greater in both tests.
func (g *Game) VisitEquilibria(visit func(Config) bool) error {
	if err := g.checkExhaustive(); err != nil {
		return err
	}
	n, k := len(g.miners), len(g.coins)
	s := make(Config, n)
	// One scratch array holds powers (the placed prefix's coin powers), bound
	// (U), held[d] (the power on s[d] before miner d joined), rest[d] (the
	// power of miners d..n−1) and pay.
	buf := make([]float64, 2*k+2*n+1+n*k)
	powers, bound, held := buf[:k], buf[k:2*k], buf[2*k:2*k+n]
	rest, pay := buf[2*k+n:2*k+2*n+1], buf[2*k+2*n+1:]
	for p := n - 1; p >= 0; p-- {
		m := g.miners[p].Power
		rest[p] = m + rest[p+1]
		for c, f := range g.rewards {
			pay[p*k+c] = m * f
			if !g.Eligible(p, c) {
				pay[p*k+c] = math.NaN()
			}
		}
	}
	prune := g.pruneSound()
	s[0] = -1
search:
	for d := 0; d >= 0; {
		// Move miner d off its coin to the next eligible one, or back up.
		a := s[d]
		if a >= 0 {
			powers[a] = held[d]
		}
		for a++; a < k && !g.Eligible(d, a); a++ {
		}
		if a == k {
			d--
			continue
		}
		mp := g.miners[d].Power
		s[d], held[d] = a, powers[a]
		powers[a] += mp
		if d+1 < n {
			if prune {
				r := rest[d+1]
				for b, pb := range powers {
					bound[b] = float64((pb + r) * (1 + pruneMargin))
				}
				if gains(pay[d*k:d*k+k], mp, a, powers[a], bound, g.eps) {
					continue
				}
			}
			d++
			s[d] = -1
			continue
		}
		for p := n - 1; p >= 0; p-- {
			if gains(pay[p*k:p*k+k], g.miners[p].Power, s[p], powers[s[p]], powers, g.eps) {
				continue search
			}
		}
		if !visit(s) {
			return nil
		}
	}
	return nil
}

// gains is movable(p, a, held, others) for the miner p of power mp whose
// row of VisitEquilibria's table is row: row[c] = m_p·F(c), or NaN where p
// may not mine c.
func gains(row []float64, mp float64, a CoinID, held float64, others []float64, eps float64) bool {
	cur := row[a] / held
	for b, pb := range row {
		if b != a && numeric.Greater(pb/(others[b]+mp), cur, eps) {
			return true
		}
	}
	return false
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
