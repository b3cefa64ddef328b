package core

import (
	"fmt"
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
	if spec.Miners <= 0 || spec.Coins <= 0 {
		return nil, fmt.Errorf("core: invalid spec %+v", spec)
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
	miners := make([]Miner, spec.Miners)
	if spec.PowerZipf > 0 {
		weights := rng.Zipf(spec.Miners, spec.PowerZipf, spec.PowerHi*float64(spec.Miners)/2)
		for i := range miners {
			jitter := 1 + 1e-7*r.Float64()
			miners[i] = Miner{Name: genName(minerNames, "p", i), Power: weights[i] * jitter}
		}
	} else {
		for i := range miners {
			power := spec.PowerLo + (spec.PowerHi-spec.PowerLo)*r.Float64()
			miners[i] = Miner{Name: genName(minerNames, "p", i), Power: power}
		}
	}
	coins := make([]Coin, spec.Coins)
	rewards := make([]float64, spec.Coins)
	for c := range coins {
		coins[c] = Coin{Name: genName(coinNames, "c", c)}
		rewards[c] = spec.RewardLo + (spec.RewardHi-spec.RewardLo)*r.Float64()
	}
	return newGame(miners, coins, rewards)
}

// minerNames and coinNames hold the names RandomGame gives, "p0"… and
// "c0"…, for games of up to 128 miners (E4's largest) and 16 coins;
// genName formats the others.
var minerNames, coinNames = nameTable("p", 128), nameTable("c", 16)

func nameTable(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// genName returns prefix followed by i in decimal.
func genName(table []string, prefix string, i int) string {
	if i < len(table) {
		return table[i]
	}
	return prefix + strconv.Itoa(i)
}

// RandomConfig draws a uniform random valid configuration of g.
func RandomConfig(r *rng.Rand, g *Game) Config {
	s := make(Config, g.NumMiners())
	for p := range s {
		for {
			c := r.Intn(g.NumCoins())
			if g.Eligible(p, c) {
				s[p] = c
				break
			}
		}
	}
	return s
}
