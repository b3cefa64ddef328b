package core

import (
	"fmt"
	"math"
	"strings"

	"gameofcoins/internal/numeric"
)

// Config is a system configuration s ∈ S = Cⁿ: Config[p] is the coin mined
// by miner p (the paper's s.p). Configs are plain slices; treat them as
// values — Apply returns a modified copy and never mutates its input.
type Config []CoinID

// Clone returns a deep copy of s.
func (s Config) Clone() Config { return append(Config(nil), s...) }

// Equal reports whether s and o assign every miner the same coin.
func (s Config) Equal(o Config) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the configuration compactly, e.g. "⟨c0 c2 c1⟩".
func (s Config) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("c%d", c)
	}
	return "⟨" + strings.Join(parts, " ") + "⟩"
}

// Key returns a compact string usable as a map key for visited-set tracking.
func (s Config) Key() string {
	var b strings.Builder
	b.Grow(len(s) * 3)
	for i, c := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// UniformConfig returns the configuration in which every miner mines coin c.
func UniformConfig(n int, c CoinID) Config {
	s := make(Config, n)
	for i := range s {
		s[i] = c
	}
	return s
}

// ValidateConfig checks that s is a legal configuration of g: correct arity,
// coin IDs in range, and eligibility respected.
func (g *Game) ValidateConfig(s Config) error {
	if len(s) != len(g.miners) {
		return fmt.Errorf("%w: config has %d entries for %d miners", ErrBadConfig, len(s), len(g.miners))
	}
	for p, c := range s {
		if c < 0 || c >= len(g.coins) {
			return fmt.Errorf("%w: miner %d assigned coin %d (have %d coins)", ErrBadConfig, p, c, len(g.coins))
		}
		if !g.Eligible(p, c) {
			return fmt.Errorf("%w: miner %d on coin %d", ErrNotEligible, p, c)
		}
	}
	return nil
}

// CoinPower returns M_c(s) = Σ_{p ∈ P_c(s)} m_p.
func (g *Game) CoinPower(s Config, c CoinID) float64 {
	var t float64
	for p, cp := range s {
		if cp == c {
			t += g.miners[p].Power
		}
	}
	return t
}

// CoinPowers returns M_c(s) for every coin in one pass.
func (g *Game) CoinPowers(s Config) []float64 { return g.AppendCoinPowers(nil, s) }

// AppendCoinPowers appends M_c(s) for every coin to dst and returns the
// extended slice, so a caller can keep the powers in an array of its own
// (dst = buf[:0]). Each M_c(s) adds the m_p of c's miners in MinerID order,
// starting from 0, exactly as CoinPower does, so the two agree bit for bit;
// the …In methods below rely on that.
func (g *Game) AppendCoinPowers(dst []float64, s Config) []float64 {
	base := len(dst)
	for range g.coins {
		dst = append(dst, 0)
	}
	for p, c := range s {
		dst[base+c] += g.miners[p].Power
	}
	return dst
}

// stackCoins is the number of coins up to which the methods below keep a
// configuration's coin powers in a stack array; larger games allocate them.
const stackCoins = 16

// RPU returns the revenue per unit of coin c in s: F(c)/M_c(s).
// A coin with no miners has RPU +Inf (the limit as power → 0), which is the
// correct value for the lexicographic list of Theorem 1: an empty coin is
// always the most attractive destination per unit of power.
func (g *Game) RPU(s Config, c CoinID) float64 {
	m := g.CoinPower(s, c)
	if m == 0 {
		return math.Inf(1)
	}
	return g.rewards[c] / m
}

// RPUs returns the RPU of every coin in one pass.
func (g *Game) RPUs(s Config) []float64 {
	powers := g.CoinPowers(s)
	out := make([]float64, len(powers))
	for c, m := range powers {
		if m == 0 {
			out[c] = math.Inf(1)
		} else {
			out[c] = g.rewards[c] / m
		}
	}
	return out
}

// share is m·F/M: the payoff of power m on a coin with reward F on which
// the total power, m's included, is M. It is the one payoff expression in
// the package: u_p(s) is share(m_p, F(s.p), M_{s.p}(s)), and p's payoff
// after moving to b ≠ s.p is share(m_p, F(b), M_b(s)+m_p).
func share(m, f, total float64) float64 { return m * f / total }

// nextMove returns the lowest coin b in [from, to) to which miner p, mining
// coin a on which the total power is held, has a better response step, or
// to if there is none; others[b] is the power the other miners hold on b.
// It is the one better-response test in the package: b ≠ a, b is eligible
// for p, and share(m_p, F(b), others[b]+m_p) beats share(m_p, F(a), held)
// beyond the game's epsilon.
func (g *Game) nextMove(p MinerID, a CoinID, held float64, others []float64, from, to CoinID) CoinID {
	mp := g.miners[p].Power
	cur := share(mp, g.rewards[a], held)
	for b := from; b < to; b++ {
		if b != a && g.Eligible(p, b) && numeric.Greater(share(mp, g.rewards[b], others[b]+mp), cur, g.eps) {
			return b
		}
	}
	return to
}

// Payoff returns u_p(s) = m_p · F(s.p) / M_{s.p}(s).
func (g *Game) Payoff(s Config, p MinerID) float64 {
	return share(g.miners[p].Power, g.rewards[s[p]], g.CoinPower(s, s[p]))
}

// PayoffIn is Payoff(s, p) given powers = CoinPowers(s).
func (g *Game) PayoffIn(s Config, p MinerID, powers []float64) float64 {
	return share(g.miners[p].Power, g.rewards[s[p]], powers[s[p]])
}

// Payoffs returns every miner's payoff in one pass.
func (g *Game) Payoffs(s Config) []float64 {
	powers := g.CoinPowers(s)
	out := make([]float64, len(s))
	for p := range s {
		out[p] = g.PayoffIn(s, p, powers)
	}
	return out
}

// SumPayoffs returns Σ_p u_p(s). By Observation 3 this equals Σ_c F(c) in
// every stable configuration of a game satisfying Assumption 1.
func (g *Game) SumPayoffs(s Config) float64 {
	var t float64
	for _, u := range g.Payoffs(s) {
		t += u
	}
	return t
}

// PayoffAfterMove returns u_p((s₋p, c)): the payoff p would receive after
// unilaterally moving to coin c. For c == s[p] it equals Payoff(s, p).
func (g *Game) PayoffAfterMove(s Config, p MinerID, c CoinID) float64 {
	if c == s[p] {
		return g.Payoff(s, p)
	}
	mp := g.miners[p].Power
	return share(mp, g.rewards[c], g.CoinPower(s, c)+mp)
}

// PayoffAfterMoveIn is PayoffAfterMove(s, p, c) given powers = CoinPowers(s).
func (g *Game) PayoffAfterMoveIn(s Config, p MinerID, c CoinID, powers []float64) float64 {
	if c == s[p] {
		return g.PayoffIn(s, p, powers)
	}
	mp := g.miners[p].Power
	return share(mp, g.rewards[c], powers[c]+mp)
}

// Apply returns the configuration (s₋p, c). It does not mutate s.
func (g *Game) Apply(s Config, p MinerID, c CoinID) Config {
	ns := s.Clone()
	ns[p] = c
	return ns
}

// IsBetterResponse reports whether moving p from s.p to c is a better
// response step: u_p(s) < u_p((s₋p, c)) beyond the game's epsilon, and c is
// eligible for p.
func (g *Game) IsBetterResponse(s Config, p MinerID, c CoinID) bool {
	var buf [stackCoins]float64
	return g.IsBetterResponseIn(s, p, c, g.AppendCoinPowers(buf[:0], s))
}

// IsBetterResponseIn is IsBetterResponse(s, p, c) given
// powers = CoinPowers(s).
func (g *Game) IsBetterResponseIn(s Config, p MinerID, c CoinID, powers []float64) bool {
	return g.nextMove(p, s[p], powers[s[p]], powers, c, c+1) == c
}

// BetterResponses returns every coin to which moving is a better response
// step for p in s, in CoinID order.
func (g *Game) BetterResponses(s Config, p MinerID) []CoinID {
	var buf [stackCoins]float64
	return g.AppendBetterResponsesIn(nil, s, p, g.AppendCoinPowers(buf[:0], s))
}

// AppendBetterResponsesIn appends BetterResponses(s, p) to dst, given
// powers = CoinPowers(s), and returns the extended slice.
func (g *Game) AppendBetterResponsesIn(dst []CoinID, s Config, p MinerID, powers []float64) []CoinID {
	a, k := s[p], len(g.coins)
	for c := g.nextMove(p, a, powers[a], powers, 0, k); c < k; c = g.nextMove(p, a, powers[a], powers, c+1, k) {
		dst = append(dst, c)
	}
	return dst
}

// BestResponse returns the eligible coin maximizing p's post-move payoff and
// whether that move strictly improves on p's current payoff. Ties are broken
// toward the lowest CoinID, making the choice deterministic.
func (g *Game) BestResponse(s Config, p MinerID) (CoinID, bool) {
	var buf [stackCoins]float64
	return g.BestResponseIn(s, p, g.AppendCoinPowers(buf[:0], s))
}

// BestResponseIn is BestResponse(s, p) given powers = CoinPowers(s).
func (g *Game) BestResponseIn(s Config, p MinerID, powers []float64) (CoinID, bool) {
	a := s[p]
	best, bestU := a, g.PayoffIn(s, p, powers)
	for c := range g.coins {
		if c == a || !g.Eligible(p, c) {
			continue
		}
		if u := g.PayoffAfterMoveIn(s, p, c, powers); numeric.Greater(u, bestU, g.eps) {
			best, bestU = c, u
		}
	}
	return best, best != a
}

// IsStable reports whether miner p has no better response step in s.
func (g *Game) IsStable(s Config, p MinerID) bool {
	var buf [stackCoins]float64
	powers := g.AppendCoinPowers(buf[:0], s)
	return !g.movable(p, s[p], powers[s[p]], powers)
}

// IsEquilibrium reports whether s is stable: no miner has a better response.
func (g *Game) IsEquilibrium(s Config) bool {
	var buf [stackCoins]float64
	powers := g.AppendCoinPowers(buf[:0], s)
	for p, a := range s {
		if g.movable(p, a, powers[a], powers) {
			return false
		}
	}
	return true
}
