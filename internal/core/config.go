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

// Miners returns P_c(s): the miners who mine c in s.
func (g *Game) Miners(s Config, c CoinID) []MinerID {
	var out []MinerID
	for p, cp := range s {
		if cp == c {
			out = append(out, p)
		}
	}
	return out
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
func (g *Game) CoinPowers(s Config) []float64 {
	powers := make([]float64, len(g.coins))
	for p, c := range s {
		powers[c] += g.miners[p].Power
	}
	return powers
}

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

// Payoff returns u_p(s) = m_p · F(s.p) / M_{s.p}(s).
func (g *Game) Payoff(s Config, p MinerID) float64 {
	return g.miners[p].Power * g.rewards[s[p]] / g.CoinPower(s, s[p])
}

// Payoffs returns every miner's payoff in one pass.
func (g *Game) Payoffs(s Config) []float64 {
	powers := g.CoinPowers(s)
	out := make([]float64, len(s))
	for p, c := range s {
		out[p] = g.miners[p].Power * g.rewards[c] / powers[c]
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
	mp := g.miners[p].Power
	if c == s[p] {
		return mp * g.rewards[c] / g.CoinPower(s, c)
	}
	return mp * g.rewards[c] / (g.CoinPower(s, c) + mp)
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
	if c == s[p] || !g.Eligible(p, c) {
		return false
	}
	return numeric.Greater(g.PayoffAfterMove(s, p, c), g.Payoff(s, p), g.eps)
}

// BetterResponses returns every coin to which moving is a better response
// step for p in s, in CoinID order.
func (g *Game) BetterResponses(s Config, p MinerID) []CoinID {
	cur := g.Payoff(s, p)
	var out []CoinID
	for c := range g.coins {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if numeric.Greater(g.PayoffAfterMove(s, p, c), cur, g.eps) {
			out = append(out, c)
		}
	}
	return out
}

// BestResponse returns the eligible coin maximizing p's post-move payoff and
// whether that move strictly improves on p's current payoff. Ties are broken
// toward the lowest CoinID, making the choice deterministic.
func (g *Game) BestResponse(s Config, p MinerID) (CoinID, bool) {
	cur := g.Payoff(s, p)
	best := s[p]
	bestU := cur
	for c := range g.coins {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if u := g.PayoffAfterMove(s, p, c); numeric.Greater(u, bestU, g.eps) {
			best, bestU = c, u
		}
	}
	return best, best != s[p]
}

// IsStable reports whether miner p has no better response step in s.
func (g *Game) IsStable(s Config, p MinerID) bool {
	cur := g.Payoff(s, p)
	for c := range g.coins {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if numeric.Greater(g.PayoffAfterMove(s, p, c), cur, g.eps) {
			return false
		}
	}
	return true
}

// IsEquilibrium reports whether s is stable: no miner has a better response.
func (g *Game) IsEquilibrium(s Config) bool {
	powers := g.CoinPowers(s)
	for p, a := range s {
		if g.movable(p, a, powers[a], powers) {
			return false
		}
	}
	return true
}

// UnstableMiners returns the miners that have at least one better response
// step in s, in MinerID order.
func (g *Game) UnstableMiners(s Config) []MinerID {
	var out []MinerID
	for p := range s {
		if !g.IsStable(s, p) {
			out = append(out, p)
		}
	}
	return out
}
