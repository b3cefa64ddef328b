package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gameofcoins/internal/rng"
)

func TestConfigCloneEqual(t *testing.T) {
	s := Config{0, 1, 0}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = 1
	if s.Equal(c) || s[0] != 0 {
		t.Fatal("clone shares storage")
	}
	if s.Equal(Config{0, 1}) {
		t.Fatal("different lengths reported equal")
	}
}

func TestConfigStringKey(t *testing.T) {
	s := Config{0, 2, 1}
	if got := s.String(); got != "⟨c0 c2 c1⟩" {
		t.Fatalf("String = %q", got)
	}
	if got := s.Key(); got != "0,2,1" {
		t.Fatalf("Key = %q", got)
	}
	if (Config{0, 2, 1}).Key() == (Config{0, 21}).Key() {
		t.Fatal("keys collide")
	}
}

func TestUniformConfig(t *testing.T) {
	s := UniformConfig(3, 2)
	if len(s) != 3 || s[0] != 2 || s[1] != 2 || s[2] != 2 {
		t.Fatalf("UniformConfig = %v", s)
	}
}

func TestValidateConfig(t *testing.T) {
	g := paperGame(t)
	if err := g.ValidateConfig(Config{0, 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, s := range map[string]Config{
		"short":        {0},
		"long":         {0, 1, 0},
		"out of range": {0, 2},
		"negative":     {-1, 0},
	} {
		if err := g.ValidateConfig(s); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestPaperPayoffs(t *testing.T) {
	// The four configurations from Proposition 1's proof with their exact
	// published payoffs.
	g := paperGame(t)
	tests := []struct {
		name   string
		s      Config
		u1, u2 float64
	}{
		{"s1 both on c1", Config{0, 0}, 2.0 / 3.0, 1.0 / 3.0},
		{"s2 split", Config{0, 1}, 1, 1},
		{"s3 both on c2", Config{1, 1}, 2.0 / 3.0, 1.0 / 3.0},
		{"s4 swapped split", Config{1, 0}, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.Payoff(tt.s, 0); math.Abs(got-tt.u1) > 1e-12 {
				t.Errorf("u_p1 = %v, want %v", got, tt.u1)
			}
			if got := g.Payoff(tt.s, 1); math.Abs(got-tt.u2) > 1e-12 {
				t.Errorf("u_p2 = %v, want %v", got, tt.u2)
			}
		})
	}
}

func TestCoinPower(t *testing.T) {
	g := paperGame(t)
	s := Config{0, 0}
	if got := g.CoinPower(s, 0); got != 3 {
		t.Fatalf("M_c0 = %v", got)
	}
	if got := g.CoinPower(s, 1); got != 0 {
		t.Fatalf("M_c1 = %v", got)
	}
	powers := g.CoinPowers(s)
	if powers[0] != 3 || powers[1] != 0 {
		t.Fatalf("CoinPowers = %v", powers)
	}
}

func TestRPU(t *testing.T) {
	g := paperGame(t)
	s := Config{0, 0}
	if got := g.RPU(s, 0); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("RPU c0 = %v", got)
	}
	if got := g.RPU(s, 1); !math.IsInf(got, 1) {
		t.Fatalf("RPU of empty coin = %v, want +Inf", got)
	}
	rpus := g.RPUs(s)
	if math.Abs(rpus[0]-1.0/3.0) > 1e-12 || !math.IsInf(rpus[1], 1) {
		t.Fatalf("RPUs = %v", rpus)
	}
}

func TestPayoffsConsistency(t *testing.T) {
	g := paperGame(t)
	for _, s := range []Config{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		us := g.Payoffs(s)
		for p := range s {
			if math.Abs(us[p]-g.Payoff(s, p)) > 1e-12 {
				t.Fatalf("Payoffs[%d] = %v disagrees with Payoff %v at %v", p, us[p], g.Payoff(s, p), s)
			}
		}
	}
}

func TestSumPayoffsEqualsTotalRewardWhenAllCoinsMined(t *testing.T) {
	g := paperGame(t)
	if got := g.SumPayoffs(Config{0, 1}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("sum payoffs = %v, want 2", got)
	}
	// With a coin empty, its reward is not distributed.
	if got := g.SumPayoffs(Config{0, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sum payoffs = %v, want 1", got)
	}
}

func TestPayoffAfterMove(t *testing.T) {
	g := paperGame(t)
	s := Config{0, 0}
	// p2 moving to empty c2 earns the full reward 1.
	if got := g.PayoffAfterMove(s, 1, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-move payoff = %v", got)
	}
	// Staying equals current payoff.
	if got := g.PayoffAfterMove(s, 1, 0); math.Abs(got-g.Payoff(s, 1)) > 1e-12 {
		t.Fatalf("stay payoff = %v", got)
	}
}

func TestApplyCopies(t *testing.T) {
	g := paperGame(t)
	s := Config{0, 0}
	ns := g.Apply(s, 1, 1)
	if s[1] != 0 {
		t.Fatal("Apply mutated input")
	}
	if ns[1] != 1 || ns[0] != 0 {
		t.Fatalf("Apply result wrong: %v", ns)
	}
}

func TestBetterResponseBasics(t *testing.T) {
	g := paperGame(t)
	s := Config{0, 0}
	// Both miners improve by moving to the empty coin.
	if !g.IsBetterResponse(s, 0, 1) || !g.IsBetterResponse(s, 1, 1) {
		t.Fatal("moves to empty coin should be better responses")
	}
	// Moving to your own coin is never a better response.
	if g.IsBetterResponse(s, 0, 0) {
		t.Fatal("self-move reported as better response")
	}
	// In the split config nobody improves.
	split := Config{0, 1}
	for p := 0; p < 2; p++ {
		if brs := g.BetterResponses(split, p); len(brs) != 0 {
			t.Fatalf("miner %d has better responses %v in split config", p, brs)
		}
	}
}

func TestBestResponse(t *testing.T) {
	g := MustNewGame(
		[]Miner{{Name: "a", Power: 1}},
		[]Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{1, 5, 3},
	)
	s := Config{0}
	c, ok := g.BestResponse(s, 0)
	if !ok || c != 1 {
		t.Fatalf("BestResponse = %d, %v; want 1, true", c, ok)
	}
	// From the best coin there is no improving move.
	if _, ok := g.BestResponse(Config{1}, 0); ok {
		t.Fatal("best response from optimum should not exist")
	}
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

func TestStabilityAndEquilibrium(t *testing.T) {
	g := paperGame(t)
	split := Config{0, 1}
	if !g.IsEquilibrium(split) {
		t.Fatal("split config should be an equilibrium")
	}
	both := Config{0, 0}
	if g.IsEquilibrium(both) {
		t.Fatal("shared config should not be an equilibrium")
	}
	if got := g.UnstableMiners(both); len(got) != 2 {
		t.Fatalf("UnstableMiners = %v", got)
	}
	if got := g.UnstableMiners(split); got != nil {
		t.Fatalf("UnstableMiners of equilibrium = %v", got)
	}
	for p := 0; p < 2; p++ {
		if !g.IsStable(split, p) {
			t.Fatalf("miner %d unstable in equilibrium", p)
		}
		if g.IsStable(both, p) {
			t.Fatalf("miner %d stable in shared config", p)
		}
	}
}

// TestObservation1Property: in every better response step from coin v_i to
// v_j (coins ordered by RPU), j > i — i.e. miners only move toward
// higher-RPU coins.
func TestObservation1Property(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 200; trial++ {
		g, err := RandomGame(r, GenSpec{Miners: 5, Coins: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := RandomConfig(r, g)
		for p := 0; p < g.NumMiners(); p++ {
			from := s[p]
			for _, to := range g.BetterResponses(s, p) {
				if !(g.RPU(s, to) > g.RPU(s, from)) {
					t.Fatalf("better response to lower-RPU coin: RPU from %v to %v",
						g.RPU(s, from), g.RPU(s, to))
				}
			}
		}
	}
}

// TestObservation2Property: after a better response step moving p from c to
// c', RPU_c(s) < min(RPU_c(s'), RPU_c'(s')).
func TestObservation2Property(t *testing.T) {
	r := rng.New(202)
	for trial := 0; trial < 200; trial++ {
		g, err := RandomGame(r, GenSpec{Miners: 6, Coins: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := RandomConfig(r, g)
		for p := 0; p < g.NumMiners(); p++ {
			c := s[p]
			for _, cp := range g.BetterResponses(s, p) {
				ns := g.Apply(s, p, cp)
				lo := math.Min(g.RPU(ns, c), g.RPU(ns, cp))
				if !(g.RPU(s, c) < lo) {
					t.Fatalf("Observation 2 violated: RPU_c(s)=%v, min after=%v", g.RPU(s, c), lo)
				}
			}
		}
	}
}

// TestBetterResponseIncreasesPayoff is the definitional property, checked
// with testing/quick over random games and configurations.
func TestBetterResponseIncreasesPayoff(t *testing.T) {
	r := rng.New(303)
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		g, err := RandomGame(rr, GenSpec{Miners: 4, Coins: 3})
		if err != nil {
			return false
		}
		s := RandomConfig(rr, g)
		p := rr.Intn(g.NumMiners())
		for _, c := range g.BetterResponses(s, p) {
			if !(g.PayoffAfterMove(s, p, c) > g.Payoff(s, p)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateConfigs(t *testing.T) {
	g := paperGame(t)
	var seen []string
	err := g.EnumerateConfigs(func(s Config) bool {
		seen = append(seen, s.Key())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0,0", "0,1", "1,0", "1,1"}
	if len(seen) != len(want) {
		t.Fatalf("enumerated %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("enumerated %v, want %v", seen, want)
		}
	}
}

func TestEnumerateConfigsEarlyStop(t *testing.T) {
	g := paperGame(t)
	count := 0
	if err := g.EnumerateConfigs(func(Config) bool {
		count++
		return count < 2
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("visited %d configs, want 2", count)
	}
}

func TestVisitEquilibriaEarlyStop(t *testing.T) {
	count := 0
	if err := paperGame(t).VisitEquilibria(func(Config) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("visited %d equilibria, want 1", count)
	}
}

func TestEnumerateConfigsRespectsEligibility(t *testing.T) {
	g := MustNewGame(
		[]Miner{{Name: "a", Power: 2}, {Name: "b", Power: 1}},
		[]Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{1, 1},
		WithEligibility(func(p MinerID, c CoinID) bool { return p != 1 || c == 1 }),
	)
	count := 0
	if err := g.EnumerateConfigs(func(s Config) bool {
		if s[1] != 1 {
			t.Fatalf("enumerated ineligible config %v", s)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("enumerated %d configs, want 2", count)
	}
}

func TestEnumerateTooLarge(t *testing.T) {
	miners := make([]Miner, 30)
	for i := range miners {
		miners[i] = Miner{Name: "m", Power: float64(i + 1)}
	}
	g := MustNewGame(miners, []Coin{{Name: "a"}, {Name: "b"}, {Name: "c"}}, []float64{1, 2, 3})
	if err := g.EnumerateConfigs(func(Config) bool { return true }); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnumerateConfigs err = %v, want ErrTooLarge", err)
	}
	if err := g.VisitEquilibria(func(Config) bool { return true }); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("VisitEquilibria err = %v, want ErrTooLarge", err)
	}
}

func TestRandomGameSpecDefaults(t *testing.T) {
	r := rng.New(7)
	g, err := RandomGame(r, GenSpec{Miners: 10, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMiners() != 10 || g.NumCoins() != 4 {
		t.Fatal("sizes wrong")
	}
	for p := 0; p+1 < g.NumMiners(); p++ {
		if g.Power(p) < g.Power(p+1) {
			t.Fatal("not sorted descending")
		}
	}
	if _, err := RandomGame(r, GenSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestRandomGameZipf(t *testing.T) {
	r := rng.New(8)
	g, err := RandomGame(r, GenSpec{Miners: 20, Coins: 3, PowerZipf: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	// Zipf powers are strongly concentrated: top miner should hold well over
	// the mean share.
	if g.Power(0) < 2*g.TotalPower()/20 {
		t.Fatalf("Zipf concentration missing: top=%v total=%v", g.Power(0), g.TotalPower())
	}
}

func TestRandomConfigValid(t *testing.T) {
	r := rng.New(9)
	g, err := RandomGame(r, GenSpec{Miners: 8, Coins: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := g.ValidateConfig(RandomConfig(r, g)); err != nil {
			t.Fatal(err)
		}
	}
}
