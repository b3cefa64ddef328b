// Package exact mirrors the core game in exact rational arithmetic
// (math/big.Rat via internal/numeric.Rat).
//
// The float64 engine in internal/core compares payoffs with a relative
// epsilon; near-ties — which the paper's Assumption 2 rules out in theory
// but floating point manufactures in practice — are resolved by that
// tolerance. This package recomputes the same predicates with no rounding
// at all, so tests can assert that every decision the fast engine makes
// (better-response sets, stability, equilibrium membership) agrees with
// exact arithmetic, and flag inputs where the epsilon materially matters.
package exact

import (
	"fmt"

	"gameofcoins/internal/core"
	"gameofcoins/internal/numeric"
)

// Game is the exact-arithmetic shadow of a core.Game. Construct with
// FromGame. It is safe for concurrent read use.
type Game struct {
	powers  []numeric.Rat
	rewards []numeric.Rat
	src     *core.Game
}

// FromGame converts g to exact arithmetic. Every float64 is representable
// exactly as a rational, so the conversion is lossless.
func FromGame(g *core.Game) *Game {
	eg := &Game{
		powers:  make([]numeric.Rat, g.NumMiners()),
		rewards: make([]numeric.Rat, g.NumCoins()),
		src:     g,
	}
	for p := range eg.powers {
		eg.powers[p] = numeric.RatFromFloat(g.Power(p))
	}
	for c := range eg.rewards {
		eg.rewards[c] = numeric.RatFromFloat(g.Reward(c))
	}
	return eg
}

// CoinPower returns M_c(s) exactly.
func (eg *Game) CoinPower(s core.Config, c core.CoinID) numeric.Rat {
	var acc numeric.Rat
	for p, cp := range s {
		if cp == c {
			acc = acc.Add(eg.powers[p])
		}
	}
	return acc
}

// Payoff returns u_p(s) exactly.
func (eg *Game) Payoff(s core.Config, p core.MinerID) numeric.Rat {
	return eg.powers[p].Mul(eg.rewards[s[p]]).Div(eg.CoinPower(s, s[p]))
}

// PayoffAfterMove returns u_p((s₋p, c)) exactly.
func (eg *Game) PayoffAfterMove(s core.Config, p core.MinerID, c core.CoinID) numeric.Rat {
	if c == s[p] {
		return eg.Payoff(s, p)
	}
	return eg.powers[p].Mul(eg.rewards[c]).Div(eg.CoinPower(s, c).Add(eg.powers[p]))
}

// IsBetterResponse reports, exactly, whether p moving to c strictly
// improves p's payoff (and c is eligible).
func (eg *Game) IsBetterResponse(s core.Config, p core.MinerID, c core.CoinID) bool {
	if c == s[p] || !eg.src.Eligible(p, c) {
		return false
	}
	return eg.PayoffAfterMove(s, p, c).Greater(eg.Payoff(s, p))
}

// Disagreement describes a decision where the float engine and the exact
// engine differ — evidence that the game is so close to an Assumption-2
// violation that float64 epsilon comparisons change its dynamics.
type Disagreement struct {
	Config core.Config
	Miner  core.MinerID
	Coin   core.CoinID
	Float  bool // float engine's IsBetterResponse
	Exact  bool // exact engine's IsBetterResponse
}

func (d *Disagreement) String() string {
	return fmt.Sprintf("at %v miner %d → coin %d: float=%v exact=%v",
		d.Config, d.Miner, d.Coin, d.Float, d.Exact)
}

// CrossValidate compares every better-response decision of the float engine
// against the exact engine at configuration s and returns all disagreements.
func CrossValidate(g *core.Game, s core.Config) []Disagreement {
	eg := FromGame(g)
	var out []Disagreement
	for p := range s {
		for c := 0; c < g.NumCoins(); c++ {
			if c == s[p] {
				continue
			}
			fl := g.IsBetterResponse(s, p, c)
			ex := eg.IsBetterResponse(s, p, c)
			if fl != ex {
				out = append(out, Disagreement{
					Config: s.Clone(), Miner: p, Coin: c, Float: fl, Exact: ex,
				})
			}
		}
	}
	return out
}
