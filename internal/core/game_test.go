package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gameofcoins/internal/rng"
)

// searchShapes are the random-game shapes the equilibrium search serves:
// eq-cold's 10×3 and 11×3 equilibrium_sweep games and E6's 6×2.
var searchShapes = []GenSpec{{Miners: 10, Coins: 3}, {Miners: 11, Coins: 3}, {Miners: 6, Coins: 2}}

// TestVisitEquilibriaAllocs: counting a game's equilibria costs two
// allocations, the profile and one scratch array, whatever the game's size.
func TestVisitEquilibriaAllocs(t *testing.T) {
	for _, spec := range searchShapes {
		g, err := RandomGame(rng.New(23), spec)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		count := func(Config) bool { n++; return true }
		if allocs := testing.AllocsPerRun(5, func() { _ = g.VisitEquilibria(count) }); allocs > 2 {
			t.Errorf("counting the equilibria of a %dx%d game allocates %v times, want at most 2", spec.Miners, spec.Coins, allocs)
		}
	}
}

// BenchmarkVisitEquilibria counts the equilibria of 64 fixed random games
// of each shape without keeping them, as an equilibrium_sweep task does;
// one op is all 64 games.
func BenchmarkVisitEquilibria(b *testing.B) {
	for _, spec := range searchShapes {
		b.Run(fmt.Sprintf("%dx%d", spec.Miners, spec.Coins), func(b *testing.B) {
			games := make([]*Game, 64)
			for i := range games {
				g, err := RandomGame(rng.New(uint64(1000+i)), spec)
				if err != nil {
					b.Fatal(err)
				}
				games[i] = g
			}
			n := 0
			count := func(Config) bool { n++; return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, g := range games {
					if err := g.VisitEquilibria(count); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// paperGame builds the Proposition 1 example: two miners with powers 2 and 1,
// two coins with reward 1 each.
func paperGame(t *testing.T) *Game {
	t.Helper()
	g, err := NewGame(
		[]Miner{{Name: "p1", Power: 2}, {Name: "p2", Power: 1}},
		[]Coin{{Name: "c1"}, {Name: "c2"}},
		[]float64{1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGameValidation(t *testing.T) {
	m := []Miner{{Name: "a", Power: 1}}
	c := []Coin{{Name: "x"}}
	tests := []struct {
		name    string
		miners  []Miner
		coins   []Coin
		rewards []float64
		wantErr error
	}{
		{"no miners", nil, c, []float64{1}, ErrNoMiners},
		{"no coins", m, nil, nil, ErrNoCoins},
		{"reward arity", m, c, []float64{1, 2}, ErrRewardArity},
		{"zero power", []Miner{{Power: 0}}, c, []float64{1}, ErrBadPower},
		{"negative power", []Miner{{Power: -1}}, c, []float64{1}, ErrBadPower},
		{"NaN power", []Miner{{Power: math.NaN()}}, c, []float64{1}, ErrBadPower},
		{"Inf power", []Miner{{Power: math.Inf(1)}}, c, []float64{1}, ErrBadPower},
		{"zero reward", m, c, []float64{0}, ErrBadReward},
		{"negative reward", m, c, []float64{-3}, ErrBadReward},
		{"valid", m, c, []float64{1}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewGame(tt.miners, tt.coins, tt.rewards)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestMinersSortedDescending(t *testing.T) {
	g := MustNewGame(
		[]Miner{{Name: "small", Power: 1}, {Name: "big", Power: 10}, {Name: "mid", Power: 5}},
		[]Coin{{Name: "c"}},
		[]float64{1},
	)
	if g.Miner(0).Name != "big" || g.Miner(1).Name != "mid" || g.Miner(2).Name != "small" {
		t.Fatalf("miners not sorted: %v %v %v", g.Miner(0), g.Miner(1), g.Miner(2))
	}
}

func TestSortTieBreakByName(t *testing.T) {
	g := MustNewGame(
		[]Miner{{Name: "z", Power: 2}, {Name: "a", Power: 2}},
		[]Coin{{Name: "c"}},
		[]float64{1},
	)
	if g.Miner(0).Name != "a" {
		t.Fatalf("tie break wrong: %v first", g.Miner(0))
	}
}

func TestAccessors(t *testing.T) {
	g := paperGame(t)
	if g.NumMiners() != 2 || g.NumCoins() != 2 {
		t.Fatal("sizes wrong")
	}
	if g.Power(0) != 2 || g.Power(1) != 1 {
		t.Fatal("powers wrong")
	}
	if g.Reward(0) != 1 || g.Reward(1) != 1 {
		t.Fatal("rewards wrong")
	}
	if g.TotalPower() != 3 || g.TotalReward() != 2 {
		t.Fatal("totals wrong")
	}
	if g.Coin(0).Name != "c1" {
		t.Fatal("coin name wrong")
	}
	if g.Epsilon() <= 0 {
		t.Fatal("default epsilon should be positive")
	}
}

func TestRewardsReturnsCopy(t *testing.T) {
	g := paperGame(t)
	r := g.Rewards()
	r[0] = 999
	if g.Reward(0) == 999 {
		t.Fatal("Rewards leaked internal state")
	}
}

func TestWithRewards(t *testing.T) {
	g := paperGame(t)
	g2, err := g.WithRewards([]float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Reward(0) != 5 || g2.Reward(1) != 7 {
		t.Fatal("new rewards not applied")
	}
	if g.Reward(0) != 1 {
		t.Fatal("original game mutated")
	}
	if _, err := g.WithRewards([]float64{1}); !errors.Is(err, ErrRewardArity) {
		t.Fatalf("arity err = %v", err)
	}
	if _, err := g.WithRewards([]float64{0, 1}); !errors.Is(err, ErrBadReward) {
		t.Fatalf("bad reward err = %v", err)
	}
}

func TestWithEpsilon(t *testing.T) {
	g := MustNewGame(
		[]Miner{{Name: "a", Power: 1}},
		[]Coin{{Name: "c"}},
		[]float64{1},
		WithEpsilon(0),
	)
	if g.Epsilon() != 0 {
		t.Fatal("epsilon not applied")
	}
	if _, err := NewGame(
		[]Miner{{Name: "a", Power: 1}},
		[]Coin{{Name: "c"}},
		[]float64{1},
		WithEpsilon(-1),
	); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestEligibility(t *testing.T) {
	g := MustNewGame(
		[]Miner{{Name: "big", Power: 2}, {Name: "small", Power: 1}},
		[]Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{1, 1},
		// Miner 1 (small) may only mine coin 1.
		WithEligibility(func(p MinerID, c CoinID) bool { return p == 0 || c == 1 }),
	)
	if !g.Restricted() {
		t.Fatal("Restricted() false")
	}
	if !g.Eligible(0, 0) || !g.Eligible(0, 1) || g.Eligible(1, 0) || !g.Eligible(1, 1) {
		t.Fatal("eligibility matrix wrong")
	}
	// Miner 1 on coin 0 is an invalid config.
	if err := g.ValidateConfig(Config{0, 0}); !errors.Is(err, ErrNotEligible) {
		t.Fatalf("ValidateConfig = %v", err)
	}
	// A better response into an ineligible coin must not exist.
	s := Config{1, 1}
	for _, c := range g.BetterResponses(s, 1) {
		if c == 0 {
			t.Fatal("ineligible coin offered as better response")
		}
	}
}

func TestEligibilityNoCoinRejected(t *testing.T) {
	_, err := NewGame(
		[]Miner{{Name: "a", Power: 1}},
		[]Coin{{Name: "c"}},
		[]float64{1},
		WithEligibility(func(MinerID, CoinID) bool { return false }),
	)
	if !errors.Is(err, ErrNoEligibleCoin) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnrestrictedGameEligibleEverywhere(t *testing.T) {
	g := paperGame(t)
	if g.Restricted() {
		t.Fatal("unrestricted game reports Restricted")
	}
	for p := 0; p < g.NumMiners(); p++ {
		for c := 0; c < g.NumCoins(); c++ {
			if !g.Eligible(p, c) {
				t.Fatalf("Eligible(%d,%d) = false", p, c)
			}
		}
	}
}

func TestMustNewGamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewGame did not panic")
		}
	}()
	MustNewGame(nil, nil, nil)
}
