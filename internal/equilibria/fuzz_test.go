package equilibria

import (
	"math"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/numeric"
	"gameofcoins/internal/rng"
)

// bruteForce is the reference Enumerate is checked against: every
// configuration, in EnumerateConfigs order, filtered by IsEquilibrium.
func bruteForce(g *core.Game) ([]core.Config, error) {
	var out []core.Config
	err := g.EnumerateConfigs(func(s core.Config) bool {
		if g.IsEquilibrium(s) {
			out = append(out, s.Clone())
		}
		return true
	})
	return out, err
}

// fuzzShapes are the random-game shapes the benchmark and E6 enumerate:
// eq-cold's 10×3 and 11×3 games and E6's 6×2.
var fuzzShapes = []core.GenSpec{{Miners: 10, Coins: 3}, {Miners: 11, Coins: 3}, {Miners: 6, Coins: 2}}

// byteGame builds a small game from fuzz bytes: n ≤ 8 miners, ≤ 4 coins,
// integer or float powers and rewards, eps ∈ {0, numeric.Eps, 1e-15}, and
// optional random eligibility. Missing bytes read as zero. It returns nil
// when the bytes describe no valid game (a miner with no eligible coin).
func byteGame(raw []byte) *core.Game {
	next := func() int {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return int(b)
	}
	n, k, flags := 1+next()%8, 1+next()%4, next()
	value := func() float64 {
		if flags&1 == 0 {
			return float64(1 + next()%8)
		}
		return math.Ldexp(1+float64(next())/256+float64(next())/65536, next()%9-4)
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
	opts := []core.Option{core.WithEpsilon([]float64{0, numeric.Eps, 1e-15}[(flags>>1)%3])}
	if flags&8 != 0 {
		masks := make([]int, n)
		for p := range masks {
			masks[p] = next()
		}
		opts = append(opts, core.WithEligibility(func(p core.MinerID, c core.CoinID) bool {
			return masks[p]>>c&1 == 1
		}))
	}
	g, err := core.NewGame(miners, coins, rewards, opts...)
	if err != nil {
		return nil
	}
	return g
}

// FuzzEnumerateMatchesBruteForce checks that the pruned search returns
// exactly the exhaustive result, in the same order. With shape's top bit
// set the game is core.RandomGame(rng.New(seed), fuzzShapes[shape%3]);
// otherwise byteGame(raw) builds it. (Seeds run under plain `go test`;
// `go test -fuzz=FuzzEnumerateMatchesBruteForce` explores further.)
func FuzzEnumerateMatchesBruteForce(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		for shape := range fuzzShapes {
			f.Add(uint8(0x80|shape), seed, []byte(nil))
		}
	}
	// Byte-built seeds: flags byte i runs through every combination of
	// integer/float values, the three epsilons and eligibility.
	for i := 0; i < 32; i++ {
		r := rng.New(uint64(100 + i))
		raw := make([]byte, 64)
		for j := range raw {
			raw[j] = byte(r.Intn(256))
		}
		raw[2] = byte(i)
		f.Add(uint8(0), uint64(0), raw)
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed uint64, raw []byte) {
		var g *core.Game
		if shape&0x80 != 0 {
			var err error
			if g, err = core.RandomGame(rng.New(seed), fuzzShapes[int(shape&0x7f)%len(fuzzShapes)]); err != nil {
				t.Fatal(err)
			}
		} else if g = byteGame(raw); g == nil {
			return
		}
		matchBruteForce(t, g)
	})
}

// TestEnumerateWithoutCut covers the games on which the search's cut is
// off (eps > 1/4, or m_p·F(c) overflowing) and the eps = 1/4 edge where it
// is still on: Enumerate must still return the brute-force list.
func TestEnumerateWithoutCut(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 40; trial++ {
		base, err := core.RandomGame(r, core.GenSpec{Miners: 7, Coins: 3})
		if err != nil {
			t.Fatal(err)
		}
		miners := make([]core.Miner, base.NumMiners())
		for p := range miners {
			miners[p] = base.Miner(p)
		}
		coins := []core.Coin{base.Coin(0), base.Coin(1), base.Coin(2)}
		for _, g := range []*core.Game{
			core.MustNewGame(miners, coins, base.Rewards(), core.WithEpsilon(0.25)),
			core.MustNewGame(miners, coins, base.Rewards(), core.WithEpsilon(0.5)),
			core.MustNewGame(miners, coins, []float64{1e307, 5e307, 1.7e308}),
		} {
			matchBruteForce(t, g)
		}
	}
}

// matchBruteForce fails t unless Enumerate(g) is bruteForce(g), order
// included.
func matchBruteForce(t *testing.T, g *core.Game) {
	t.Helper()
	want, err := bruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		if i == len(got) || i == len(want) || !got[i].Equal(want[i]) {
			t.Fatalf("eps %g: Enumerate found %d equilibria, brute force %d; first difference at index %d:\n got %v\nwant %v",
				g.Epsilon(), len(got), len(want), i, at(got, i), at(want, i))
		}
	}
}

// at returns eqs[i], or nil past the end.
func at(eqs []core.Config, i int) core.Config {
	if i < len(eqs) {
		return eqs[i]
	}
	return nil
}
