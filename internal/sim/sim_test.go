package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gameofcoins/internal/chain"
	"gameofcoins/internal/core"
	"gameofcoins/internal/market"
	"gameofcoins/internal/mining"
	"gameofcoins/internal/rng"
)

// loyal never switches coins: the control policy.
type loyal struct{}

func (loyal) Name() string                              { return "loyal" }
func (loyal) Decide(d mining.Decision, _ *rng.Rand) int { return d.Current }

func twoCoinSim(t *testing.T, w0, w1 float64, policy mining.Policy) *Simulator {
	t.Helper()
	mkCoin := func(name string, rate float64) *market.CoinMarket {
		ch, err := chain.New(chain.Params{
			Name:               name,
			TargetBlockSeconds: 600,
			RetargetWindow:     144,
			MaxRetargetFactor:  4,
			BlockSubsidy:       10,
			InitialDifficulty:  600,
		})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := market.NewCoinMarket(ch, &market.Piecewise{Times: []float64{0}, Rates: []float64{rate}}, 0, 600)
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	agents := make([]mining.Agent, 20)
	for i := range agents {
		agents[i] = mining.Agent{Name: "m", Power: 1 + float64(i)*0.1, Policy: policy}
	}
	// Weight = 6 blocks/h · 10 coin · rate ⇒ rate = weight/60.
	s, err := New(Config{
		Coins:        []*market.CoinMarket{mkCoin("a", w0/60), mkCoin("b", w1/60)},
		Agents:       agents,
		EpochSeconds: 3600,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	s := twoCoinSim(t, 100, 100, loyal{})
	_ = s
	// Bad assignment length.
	ch, _ := chain.New(chain.Params{Name: "x", TargetBlockSeconds: 600, RetargetWindow: 10, MaxRetargetFactor: 4, BlockSubsidy: 1, InitialDifficulty: 1})
	cm, _ := market.NewCoinMarket(ch, &market.Piecewise{Times: []float64{0}, Rates: []float64{1}}, 0, 600)
	_, err := New(Config{
		Coins:      []*market.CoinMarket{cm},
		Agents:     []mining.Agent{{Name: "a", Power: 1, Policy: loyal{}}},
		Assignment: []int{0, 0},
	})
	if err == nil {
		t.Fatal("bad assignment length accepted")
	}
	_, err = New(Config{
		Coins:      []*market.CoinMarket{cm},
		Agents:     []mining.Agent{{Name: "a", Power: 1, Policy: loyal{}}},
		Assignment: []int{3},
	})
	if err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestLoyalAgentsNeverMove(t *testing.T) {
	s := twoCoinSim(t, 100, 10000, loyal{})
	before := slices.Clone(s.assignment)
	s.Run(50)
	if !slices.Equal(before, s.assignment) {
		t.Fatal("loyal agent moved")
	}
	if s.Epoch() != 50 {
		t.Fatalf("epoch = %d", s.Epoch())
	}
}

func TestBetterResponseAgentsSplitByWeight(t *testing.T) {
	// Coin b is 3× heavier; at equilibrium the power split should approach
	// the 1:3 weight ratio (equal RPUs).
	s := twoCoinSim(t, 100, 300, mining.BetterResponse{})
	s.Run(100)
	powers := s.CoinPowers()
	total := powers[0] + powers[1]
	shareB := powers[1] / total
	if math.Abs(shareB-0.75) > 0.06 {
		t.Fatalf("share of heavy coin = %v, want ≈0.75", shareB)
	}
}

func TestSeriesRecorded(t *testing.T) {
	s := twoCoinSim(t, 100, 300, mining.BetterResponse{})
	s.Run(10)
	for c := 0; c < 2; c++ {
		if s.ShareSeries[c].Len() != 10 || s.WeightSeries[c].Len() != 10 || s.RateSeries[c].Len() != 10 {
			t.Fatal("series not recorded per epoch")
		}
	}
	if s.SwitchSeries.Len() != 10 {
		t.Fatal("switch series missing")
	}
	// Shares sum to 1 each epoch.
	for i := 0; i < 10; i++ {
		sum := s.ShareSeries[0].Ys[i] + s.ShareSeries[1].Ys[i]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("epoch %d shares sum to %v", i, sum)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := twoCoinSim(t, 100, 300, mining.BetterResponse{})
	b := twoCoinSim(t, 100, 300, mining.BetterResponse{})
	a.Run(30)
	b.Run(30)
	if !slices.Equal(a.assignment, b.assignment) {
		t.Fatal("simulation not reproducible")
	}
}

func TestWeightsAndPowers(t *testing.T) {
	s := twoCoinSim(t, 100, 300, loyal{})
	w := s.Weights()
	if math.Abs(w[0]-100) > 1e-6 || math.Abs(w[1]-300) > 1e-6 {
		t.Fatalf("weights = %v", w)
	}
	powers := s.CoinPowers()
	if powers[1] != 0 {
		t.Fatalf("initial powers = %v (all agents default to coin 0)", powers)
	}
	if got := s.TotalPower(); math.Abs(got-powers[0]) > 1e-9 {
		t.Fatalf("total power %v != coin-0 power %v", got, powers[0])
	}
}

func TestDifficultyRespondsToMigration(t *testing.T) {
	// When everyone floods coin b, its chain difficulty must rise over time,
	// so the flood's hashrate then mines b's blocks far slower than at the
	// genesis difficulty of 600 (power/600 blocks a second).
	s := twoCoinSim(t, 10, 10000, mining.BetterResponse{})
	s.Run(400)
	power := s.CoinPowers()[1]
	const horizon = 600 * 100
	atGenesis := power * horizon / 600
	if mined := len(s.Coins()[1].Chain.Advance(rng.New(1), horizon, power)); float64(mined) > atGenesis/2 {
		t.Fatalf("flooded chain mined %d blocks in %d s, want well under the %.0f of genesis difficulty", mined, horizon, atGenesis)
	}
}

// TestMarketRestPointIsGameEquilibrium ties the market stack to the game
// stack: pure better-response agents run to rest under constant rates, and
// the assignment they rest in is a pure equilibrium of the game G_{Π,C,F}
// the market plays, with the agents as miners and the coin weights as F.
func TestMarketRestPointIsGameEquilibrium(t *testing.T) {
	s := twoCoinSim(t, 100, 300, mining.BetterResponse{})
	s.Run(200)
	rest := slices.Clone(s.assignment)
	s.Run(1)
	if !slices.Equal(rest, s.assignment) {
		t.Fatal("fleet still moving after 200 epochs under constant rates")
	}
	miners := make([]core.Miner, len(s.agents))
	for i, a := range s.agents {
		// Unique names make the game's sorted miner order a known permutation
		// of the fleet.
		miners[i] = core.Miner{Name: fmt.Sprintf("%s#%04d", a.Name, i), Power: a.Power}
	}
	coins := make([]core.Coin, len(s.coins))
	for c := range coins {
		coins[c] = core.Coin{Name: s.coins[c].Chain.Name()}
	}
	g, err := core.NewGame(miners, coins, s.Weights())
	if err != nil {
		t.Fatal(err)
	}
	coinOf := make(map[string]int, len(miners))
	for i, m := range miners {
		coinOf[m.Name] = rest[i]
	}
	cfg := make(core.Config, g.NumMiners())
	for p := range cfg {
		cfg[p] = coinOf[g.Miner(core.MinerID(p)).Name]
	}
	if err := g.ValidateConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if powers := s.CoinPowers(); math.Abs(g.CoinPower(cfg, 0)-powers[0]) > 1e-9 || math.Abs(g.CoinPower(cfg, 1)-powers[1]) > 1e-9 {
		t.Fatalf("game coin powers %v, %v; simulator %v", g.CoinPower(cfg, 0), g.CoinPower(cfg, 1), powers)
	}
	if !g.IsEquilibrium(cfg) {
		t.Fatalf("market rest point %v is not an equilibrium of the game it plays", cfg)
	}
}
