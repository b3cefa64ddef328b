package exact

import (
	"math"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/numeric"
	"gameofcoins/internal/rng"
)

// BetterResponses returns p's exact better-response coins in CoinID order.
func (eg *Game) BetterResponses(s core.Config, p core.MinerID) []core.CoinID {
	var out []core.CoinID
	cur := eg.Payoff(s, p)
	for c := range eg.rewards {
		if c == s[p] || !eg.src.Eligible(p, c) {
			continue
		}
		if eg.PayoffAfterMove(s, p, c).Greater(cur) {
			out = append(out, c)
		}
	}
	return out
}

// IsEquilibrium reports, exactly, whether s is a pure equilibrium.
func (eg *Game) IsEquilibrium(s core.Config) bool {
	for p := range s {
		if len(eg.BetterResponses(s, p)) != 0 {
			return false
		}
	}
	return true
}

func intGame(t *testing.T) *core.Game {
	t.Helper()
	return core.MustNewGame(
		[]core.Miner{
			{Name: "p1", Power: 13},
			{Name: "p2", Power: 11},
			{Name: "p3", Power: 7},
			{Name: "p4", Power: 5},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{17, 19, 23},
	)
}

func TestExactPayoffMatchesHandComputation(t *testing.T) {
	g := intGame(t)
	eg := FromGame(g)
	s := core.Config{0, 0, 1, 2}
	// u_p1 = 13·17/24, exactly.
	want := numeric.NewRat(13*17, 24)
	if got := eg.Payoff(s, 0); !got.Equal(want) {
		t.Fatalf("payoff = %v, want %v", got, want)
	}
	// u_p3 = 7·19/7 = 19.
	if got := eg.Payoff(s, 2); !got.Equal(numeric.RatFromInt(19)) {
		t.Fatalf("payoff = %v", got)
	}
}

func TestExactAgreesWithFloatOnIntegerGames(t *testing.T) {
	g := intGame(t)
	eg := FromGame(g)
	if err := g.EnumerateConfigs(func(s core.Config) bool {
		for p := range s {
			fl := g.Payoff(s, p)
			ex := eg.Payoff(s, p).Float64()
			if math.Abs(fl-ex) > 1e-12*(1+math.Abs(ex)) {
				t.Fatalf("payoff mismatch at %v miner %d: float %v exact %v", s, p, fl, ex)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValidateCleanOnIntegerGames(t *testing.T) {
	g := intGame(t)
	if err := g.EnumerateConfigs(func(s core.Config) bool {
		if ds := CrossValidate(g, s); len(ds) != 0 {
			t.Fatalf("disagreements at %v: %v", s, ds)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValidateRandomGames(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 100; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 5, Coins: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := core.RandomConfig(r, g)
		if ds := CrossValidate(g, s); len(ds) != 0 {
			t.Fatalf("trial %d: engines disagree: %v", trial, ds[0].String())
		}
	}
}

func TestExactEquilibriumAgreement(t *testing.T) {
	g := intGame(t)
	eg := FromGame(g)
	if err := g.EnumerateConfigs(func(s core.Config) bool {
		if g.IsEquilibrium(s) != eg.IsEquilibrium(s) {
			t.Fatalf("equilibrium disagreement at %v", s)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestExactDetectsNearTies(t *testing.T) {
	// Two coins engineered so a deviation changes payoff by ~1e-12 relative:
	// the float engine (eps=1e-9) treats it as a tie and suppresses the
	// better response; the exact engine sees the strict improvement. This
	// documents exactly the behaviour CrossValidate exists to flag.
	delta := 1e-12
	g := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 1}, {Name: "p2", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{2, 1 + delta},
	)
	// p2 shares c0: payoff 1. Moving to empty c1: payoff 1+delta — an exact
	// improvement below float epsilon.
	s := core.Config{0, 0}
	eg := FromGame(g)
	if !eg.IsBetterResponse(s, 1, 1) {
		t.Fatal("exact engine missed the strict improvement")
	}
	if g.IsBetterResponse(s, 1, 1) {
		t.Skip("float engine resolved the near-tie; epsilon semantics changed?")
	}
	ds := CrossValidate(g, s)
	if len(ds) == 0 {
		t.Fatal("CrossValidate failed to flag the near-tie")
	}
	if ds[0].Float || !ds[0].Exact {
		t.Fatalf("unexpected disagreement direction: %v", ds[0].String())
	}
}

func TestDisagreementString(t *testing.T) {
	d := &Disagreement{Config: core.Config{0, 0}, Miner: 1, Coin: 1, Exact: true}
	if got, want := d.String(), "at ⟨c0 c0⟩ miner 1 → coin 1: float=false exact=true"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestBetterResponsesExactSubsetBehaviour(t *testing.T) {
	g := intGame(t)
	eg := FromGame(g)
	r := rng.New(66)
	for trial := 0; trial < 50; trial++ {
		s := core.RandomConfig(r, g)
		for p := range s {
			fl := g.BetterResponses(s, p)
			ex := eg.BetterResponses(s, p)
			if len(fl) != len(ex) {
				t.Fatalf("BR length mismatch at %v miner %d: %v vs %v", s, p, fl, ex)
			}
			for i := range fl {
				if fl[i] != ex[i] {
					t.Fatalf("BR mismatch at %v miner %d: %v vs %v", s, p, fl, ex)
				}
			}
		}
	}
}

func TestEligibilityRespectedExactly(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "a", Power: 2}, {Name: "b", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{1, 100},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return p != 1 || c == 0 }),
	)
	eg := FromGame(g)
	// Miner 1 would love coin 1 but is ineligible.
	if eg.IsBetterResponse(core.Config{0, 0}, 1, 1) {
		t.Fatal("exact engine ignored eligibility")
	}
}
