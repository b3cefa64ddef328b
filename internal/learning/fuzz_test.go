package learning

import (
	"math"
	"slices"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/numeric"
	"gameofcoins/internal/rng"
)

// The reference schedulers below are the built-ins as they were before they
// shared one coin-power pass per Next, together with the per-call payoff
// computations they used: every payoff recomputes its coin's power from s.
// FuzzSchedulersMatchReference holds the built-ins to them.

func refCoinPower(g *core.Game, s core.Config, c core.CoinID) float64 {
	var t float64
	for p, cp := range s {
		if cp == c {
			t += g.Power(p)
		}
	}
	return t
}

func refPayoff(g *core.Game, s core.Config, p core.MinerID) float64 {
	return g.Power(p) * g.Reward(s[p]) / refCoinPower(g, s, s[p])
}

func refPayoffAfterMove(g *core.Game, s core.Config, p core.MinerID, c core.CoinID) float64 {
	mp := g.Power(p)
	if c == s[p] {
		return mp * g.Reward(c) / refCoinPower(g, s, c)
	}
	return mp * g.Reward(c) / (refCoinPower(g, s, c) + mp)
}

func refBetterResponses(g *core.Game, s core.Config, p core.MinerID) []core.CoinID {
	cur := refPayoff(g, s, p)
	var out []core.CoinID
	for c := 0; c < g.NumCoins(); c++ {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if numeric.Greater(refPayoffAfterMove(g, s, p, c), cur, g.Epsilon()) {
			out = append(out, c)
		}
	}
	return out
}

func refBestResponse(g *core.Game, s core.Config, p core.MinerID) (core.CoinID, bool) {
	best, bestU := s[p], refPayoff(g, s, p)
	for c := 0; c < g.NumCoins(); c++ {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if u := refPayoffAfterMove(g, s, p, c); numeric.Greater(u, bestU, g.Epsilon()) {
			best, bestU = c, u
		}
	}
	return best, best != s[p]
}

type refRoundRobin struct{ cursor int }

func (*refRoundRobin) Name() string { return "round-robin" }
func (rr *refRoundRobin) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	n := g.NumMiners()
	for i := 0; i < n; i++ {
		p := (rr.cursor + i) % n
		if c, ok := refBestResponse(g, s, p); ok {
			rr.cursor = (p + 1) % n
			return p, c, true
		}
	}
	return 0, 0, false
}

type refRandom struct{}

func (refRandom) Name() string { return "random" }
func (refRandom) Next(g *core.Game, s core.Config, r *rng.Rand) (core.MinerID, core.CoinID, bool) {
	type move struct {
		p core.MinerID
		c core.CoinID
	}
	var moves []move
	for p := 0; p < g.NumMiners(); p++ {
		for _, c := range refBetterResponses(g, s, p) {
			moves = append(moves, move{p, c})
		}
	}
	if len(moves) == 0 {
		return 0, 0, false
	}
	m := moves[r.Intn(len(moves))]
	return m.p, m.c, true
}

type refMaxGain struct{}

func (refMaxGain) Name() string { return "max-gain" }
func (refMaxGain) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	bestGain := 0.0
	var bp core.MinerID
	var bc core.CoinID
	found := false
	for p := 0; p < g.NumMiners(); p++ {
		cur := refPayoff(g, s, p)
		for _, c := range refBetterResponses(g, s, p) {
			gain := refPayoffAfterMove(g, s, p, c) - cur
			if !found || gain > bestGain {
				found, bestGain, bp, bc = true, gain, p, c
			}
		}
	}
	return bp, bc, found
}

type refMinGain struct{}

func (refMinGain) Name() string { return "min-gain" }
func (refMinGain) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	bestGain := math.Inf(1)
	var bp core.MinerID
	var bc core.CoinID
	found := false
	for p := 0; p < g.NumMiners(); p++ {
		cur := refPayoff(g, s, p)
		for _, c := range refBetterResponses(g, s, p) {
			gain := refPayoffAfterMove(g, s, p, c) - cur
			if gain < bestGain {
				found, bestGain, bp, bc = true, gain, p, c
			}
		}
	}
	return bp, bc, found
}

type refSmallestFirst struct{}

func (refSmallestFirst) Name() string { return "smallest-first" }
func (refSmallestFirst) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	for p := g.NumMiners() - 1; p >= 0; p-- {
		if c, ok := refBestResponse(g, s, p); ok {
			return p, c, true
		}
	}
	return 0, 0, false
}

type refLargestFirst struct{}

func (refLargestFirst) Name() string { return "largest-first" }
func (refLargestFirst) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	for p := 0; p < g.NumMiners(); p++ {
		if c, ok := refBestResponse(g, s, p); ok {
			return p, c, true
		}
	}
	return 0, 0, false
}

// referencePairs returns each built-in scheduler with its reference, both
// fresh, round-robin cursors set to cursor.
func referencePairs(cursor int) [][2]Scheduler {
	return [][2]Scheduler{
		{&RoundRobin{cursor: cursor}, &refRoundRobin{cursor: cursor}},
		{NewRandom(), refRandom{}},
		{NewMaxGain(), refMaxGain{}},
		{NewMinGain(), refMinGain{}},
		{NewSmallestFirst(), refSmallestFirst{}},
		{NewLargestFirst(), refLargestFirst{}},
	}
}

// fuzzGame draws a game of up to 12 miners and 20 coins from r. flags bit 0
// picks small-integer powers and rewards (payoff ties) over floats, bit 1
// eps 0 over the default, bit 2 a random eligibility restriction, and bit 3
// 20 coins, more than the schedulers' stack buffers hold.
func fuzzGame(r *rng.Rand, flags uint8) *core.Game {
	n, k := 1+r.Intn(12), 1+r.Intn(20)
	if flags&8 != 0 {
		k = 20
	}
	value := func() float64 {
		if flags&1 != 0 {
			return float64(1 + r.Intn(6))
		}
		return 0.5 + 100*r.Float64()
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
	var opts []core.Option
	if flags&2 != 0 {
		opts = append(opts, core.WithEpsilon(0))
	}
	if flags&4 != 0 {
		masks := make([]int, n)
		for p := range masks {
			masks[p] = 1 + r.Intn(1<<k-1)
		}
		opts = append(opts, core.WithEligibility(func(p core.MinerID, c core.CoinID) bool {
			return masks[p]>>c&1 == 1
		}))
	}
	return core.MustNewGame(miners, coins, rewards, opts...)
}

// FuzzSchedulersMatchReference checks the built-in schedulers against the
// reference ones: from random configurations of random games, along whole
// better-response walks, every built-in returns the reference's
// (p, c, ok) and leaves its rng (and round-robin cursor) in the same state.
// At every visited configuration the powers-based payoffs and predicates
// equal Payoff, PayoffAfterMove and the better-response methods, and the
// reference's payoffs, bit for bit.
func FuzzSchedulersMatchReference(f *testing.F) {
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		r := rng.New(seed)
		g := fuzzGame(r, flags)
		for trial := 0; trial < 3; trial++ {
			s0 := core.RandomConfig(r, g)
			for _, pair := range referencePairs(r.Intn(g.NumMiners())) {
				got, want := pair[0], pair[1]
				rg, rw := rng.New(r.Uint64()), rng.New(0)
				*rw = *rg
				s := s0.Clone()
				for step := 0; ; step++ {
					checkPayoffs(t, g, s)
					p, c, ok := got.Next(g, s, rg)
					wp, wc, wok := want.Next(g, s, rw)
					if p != wp || c != wc || ok != wok {
						t.Fatalf("%s at %v step %d: (%d, %d, %v), reference (%d, %d, %v)", got.Name(), s, step, p, c, ok, wp, wc, wok)
					}
					if *rg != *rw {
						t.Fatalf("%s at %v step %d: rng state differs from the reference's", got.Name(), s, step)
					}
					if rr, ok := got.(*RoundRobin); ok && rr.cursor != want.(*refRoundRobin).cursor {
						t.Fatalf("round-robin cursor %d, reference %d", rr.cursor, want.(*refRoundRobin).cursor)
					}
					if !ok {
						break
					}
					if step > 1000*g.NumMiners()*g.NumCoins() {
						t.Fatalf("%s did not converge", got.Name())
					}
					s[p] = c
				}
			}
		}
	})
}

// checkPayoffs fails t unless, at s, every powers-based method of g agrees
// bit for bit with its recomputing counterpart and with the reference.
func checkPayoffs(t *testing.T, g *core.Game, s core.Config) {
	t.Helper()
	powers := g.CoinPowers(s)
	same := func(what string, p core.MinerID, c core.CoinID, xs ...float64) {
		for _, x := range xs[1:] {
			if math.Float64bits(x) != math.Float64bits(xs[0]) {
				t.Fatalf("%s(p=%d, c=%d) at %v: %v", what, p, c, s, xs)
			}
		}
	}
	for p := 0; p < g.NumMiners(); p++ {
		same("payoff", p, s[p], g.PayoffIn(s, p, powers), g.Payoff(s, p), refPayoff(g, s, p))
		for c := 0; c < g.NumCoins(); c++ {
			same("payoff after move", p, c, g.PayoffAfterMoveIn(s, p, c, powers), g.PayoffAfterMove(s, p, c), refPayoffAfterMove(g, s, p, c))
		}
		want := refBetterResponses(g, s, p)
		got := g.AppendBetterResponsesIn(nil, s, p, powers)
		listed := g.BetterResponses(s, p)
		if !slices.Equal(got, want) || !slices.Equal(listed, want) {
			t.Fatalf("better responses of %d at %v: %v and %v, reference %v", p, s, got, listed, want)
		}
		for c := 0; c < g.NumCoins(); c++ {
			better := slices.Contains(want, c)
			if g.IsBetterResponseIn(s, p, c, powers) != better || g.IsBetterResponse(s, p, c) != better {
				t.Fatalf("IsBetterResponse(p=%d, c=%d) at %v disagrees with the reference (%v)", p, c, s, better)
			}
		}
		wc, wok := refBestResponse(g, s, p)
		if c, ok := g.BestResponseIn(s, p, powers); c != wc || ok != wok {
			t.Fatalf("BestResponseIn(p=%d) at %v = (%d, %v), reference (%d, %v)", p, s, c, ok, wc, wok)
		}
		if c, ok := g.BestResponse(s, p); c != wc || ok != wok {
			t.Fatalf("BestResponse(p=%d) at %v = (%d, %v), reference (%d, %v)", p, s, c, ok, wc, wok)
		}
		if g.IsStable(s, p) != (len(want) == 0) {
			t.Fatalf("IsStable(p=%d) at %v disagrees with the reference", p, s)
		}
	}
}
