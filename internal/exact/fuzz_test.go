package exact

import (
	"math"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/numeric"
	"gameofcoins/internal/rng"
)

// bandUlps is the rounding allowance, in units of 2⁻⁵² of the scale, on top
// of eps. A float payoff over n ≤ 6 miners carries at most (n+2)·2⁻⁵³
// relative error, so the difference of two payoffs and the rounded
// eps·scale it is compared with stray by at most about 10 such units.
const bandUlps = 16

// fuzzGame builds a game and a configuration from fuzz bytes: n ≤ 6 miners,
// ≤ 4 coins, eps ∈ {0, numeric.Eps, 1e-15}, and values that are small
// integers, floats spread over 2⁻¹⁰..2¹⁰, or small integers perturbed by
// multiples of 2⁻³⁶ (near-ties whose gaps straddle the default eps).
// Missing bytes read as zero.
func fuzzGame(raw []byte) (*core.Game, core.Config) {
	next := func() int {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return int(b)
	}
	n, k, flags := 1+next()%6, 1+next()%4, next()
	value := func() float64 {
		switch flags % 3 {
		case 0:
			return float64(1 + next()%8)
		case 1:
			return math.Ldexp(1+float64(next())/256, next()%21-10)
		default:
			return float64(1+next()%8) * (1 + math.Ldexp(float64(next()), -36))
		}
	}
	miners := make([]core.Miner, n)
	for p := range miners {
		miners[p] = core.Miner{Name: string(rune('a' + p)), Power: value()}
	}
	coins := make([]core.Coin, k)
	rewards := make([]float64, k)
	for c := range coins {
		coins[c] = core.Coin{Name: string(rune('A' + c))}
		rewards[c] = value()
	}
	g, err := core.NewGame(miners, coins, rewards, core.WithEpsilon([]float64{0, numeric.Eps, 1e-15}[flags/3%3]))
	if err != nil {
		return nil, nil
	}
	s := make(core.Config, n)
	for p := range s {
		s[p] = next() % k
	}
	return g, s
}

// relGap is the exact relative payoff gap of p's move to c in s, on the
// scale numeric.Greater uses: |u' − u| / max(|u'|, |u|, 1).
func relGap(eg *Game, s core.Config, p core.MinerID, c core.CoinID) numeric.Rat {
	after, cur := eg.PayoffAfterMove(s, p, c), eg.Payoff(s, p)
	diff := after.Sub(cur)
	if diff.Sign() < 0 {
		diff = cur.Sub(after)
	}
	scale := numeric.RatFromInt(1)
	for _, u := range []numeric.Rat{after, cur} {
		if u.Greater(scale) {
			scale = u
		}
	}
	return diff.Div(scale)
}

// FuzzFloatAgreesWithExact is the differential oracle for the float
// engine's ε-comparisons. On fuzzed games and configurations it compares
// core's IsBetterResponse and IsEquilibrium with this package's exact
// versions. They may disagree only inside the ε band: every CrossValidate
// disagreement must have an exact relative gap of at most eps plus
// bandUlps ulps. A disagreement outside the band fails with its gap, so
// the region where the engines differ is reported rather than hidden.
// (Seeds run under plain `go test`; `go test -fuzz=FuzzFloatAgreesWithExact`
// explores further.)
func FuzzFloatAgreesWithExact(f *testing.F) {
	// Flags byte i runs through every value kind × epsilon combination.
	for i := 0; i < 27; i++ {
		r := rng.New(uint64(200 + i))
		raw := make([]byte, 48)
		for j := range raw {
			raw[j] = byte(r.Intn(256))
		}
		raw[2] = byte(i)
		f.Add(raw)
	}
	// TestExactDetectsNearTies's shape under the default eps: two unit
	// miners share c0 (reward 2) next to an empty c1 worth 1 + x·2⁻³⁶, a
	// gap of ≈ 6e-10 (inside eps, so the engines disagree) or ≈ 3e-9
	// (outside it, so they must agree).
	f.Add([]byte{1, 1, 5, 0, 0, 0, 0, 1, 0, 0, 40, 0, 0})
	f.Add([]byte{1, 1, 5, 0, 0, 0, 0, 1, 0, 0, 200, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, s := fuzzGame(raw)
		if g == nil {
			return
		}
		eg := FromGame(g)
		floatMoves := false
		for p := range s {
			for c := 0; c < g.NumCoins(); c++ {
				floatMoves = floatMoves || g.IsBetterResponse(s, p, c)
			}
		}
		if g.IsEquilibrium(s) == floatMoves {
			t.Fatalf("at %v float IsEquilibrium = %v, but a float better response exists = %v", s, g.IsEquilibrium(s), floatMoves)
		}
		ds := CrossValidate(g, s)
		if g.IsEquilibrium(s) != eg.IsEquilibrium(s) && len(ds) == 0 {
			t.Fatalf("at %v float and exact IsEquilibrium differ with no better-response disagreement", s)
		}
		band := numeric.RatFromFloat(g.Epsilon()).Add(numeric.RatFromFloat(bandUlps * 0x1p-52))
		for _, d := range ds {
			if gap := relGap(eg, s, d.Miner, d.Coin); gap.Greater(band) {
				t.Fatalf("%s outside the ε band: exact relative gap %.4g > eps %g + %d ulps",
					d.String(), gap.Float64(), g.Epsilon(), bandUlps)
			}
		}
	})
}
