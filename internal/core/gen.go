package core

import (
	"fmt"
	"slices"
	"strconv"

	"gameofcoins/internal/rng"
)

// GenSpec parameterizes random game generation for experiments and tests.
type GenSpec struct {
	Miners int
	Coins  int
	// PowerZipf is the Zipf exponent for mining powers; 0 draws powers
	// uniformly from (PowerLo, PowerHi].
	PowerZipf float64
	PowerLo   float64 // default 1
	PowerHi   float64 // default 100
	RewardLo  float64 // default 1
	RewardHi  float64 // default 100
}

// RandomGame draws a random game. Powers and rewards are perturbed with a
// tiny random jitter so that Assumption 2 (genericity) holds with
// overwhelming probability.
func RandomGame(r *rng.Rand, spec GenSpec) (*Game, error) {
	g := new(Game)
	if err := g.Redraw(r, spec); err != nil {
		return nil, err
	}
	return g, nil
}

// Redraw makes g the game RandomGame(r, spec) returns, drawn from r in the
// same order and validated the same way, reusing g's storage: a sweep task
// draws each of its games into one Game. Every field is reset. A Game is
// otherwise immutable, so only a caller that owns g outright may redraw
// it: nothing else may be reading g, nor a game derived from it with
// WithRewards, which shares its miners. After an error g is unusable until
// a Redraw succeeds.
func (g *Game) Redraw(r *rng.Rand, spec GenSpec) error {
	if spec.Miners <= 0 || spec.Coins <= 0 {
		return fmt.Errorf("core: invalid spec %+v", spec)
	}
	if spec.PowerLo == 0 {
		spec.PowerLo = 1
	}
	if spec.PowerHi == 0 {
		spec.PowerHi = 100
	}
	if spec.RewardLo == 0 {
		spec.RewardLo = 1
	}
	if spec.RewardHi == 0 {
		spec.RewardHi = 100
	}
	var buf [sortBufMiners]minerKey
	keys := minerKeys(&buf, spec.Miners)
	if spec.PowerZipf > 0 {
		weights := rng.Zipf(spec.Miners, spec.PowerZipf, spec.PowerHi*float64(spec.Miners)/2)
		for i := range keys {
			jitter := 1 + 1e-7*r.Float64()
			keys[i] = minerKey{power: weights[i] * jitter, idx: i}
		}
	} else {
		for i := range keys {
			power := spec.PowerLo + (spec.PowerHi-spec.PowerLo)*r.Float64()
			keys[i] = minerKey{power: power, idx: i}
		}
	}
	rewards := slices.Grow(g.rewards[:0], spec.Coins)[:spec.Coins]
	for c := range rewards {
		rewards[c] = spec.RewardLo + (spec.RewardHi-spec.RewardLo)*r.Float64()
	}
	return g.set(keys, minerName, genCoins(spec.Coins), rewards)
}

// minerNames holds the names RandomGame gives miners, "p0"…, for games of up
// to 128 miners (E4's largest); minerName formats the others.
var minerNames = nameTable("p", 128)

// coinTable holds the coins RandomGame gives games of up to 16 coins, "c0"…:
// games share it, since nothing writes a game's coins.
var coinTable = newCoins(16)

func nameTable(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// minerName returns the name of a random game's miner i in draw order.
func minerName(i int) string {
	if i < len(minerNames) {
		return minerNames[i]
	}
	return "p" + strconv.Itoa(i)
}

// genCoins returns a random game's n coins, "c0"…, from coinTable when it
// holds them.
func genCoins(n int) []Coin {
	if n <= len(coinTable) {
		return coinTable[:n:n]
	}
	return newCoins(n)
}

func newCoins(n int) []Coin {
	coins := make([]Coin, n)
	for c := range coins {
		coins[c] = Coin{Name: "c" + strconv.Itoa(c)}
	}
	return coins
}

// RandomConfig draws a uniform random valid configuration of g.
func RandomConfig(r *rng.Rand, g *Game) Config {
	return AppendRandomConfig(make(Config, 0, g.NumMiners()), r, g)
}

// AppendRandomConfig is RandomConfig drawing into storage the caller
// reuses: it appends the configuration's entries, one per miner, to dst and
// returns the extended slice.
func AppendRandomConfig(dst Config, r *rng.Rand, g *Game) Config {
	for p := range g.NumMiners() {
		for {
			c := r.Intn(g.NumCoins())
			if g.Eligible(p, c) {
				dst = append(dst, c)
				break
			}
		}
	}
	return dst
}
