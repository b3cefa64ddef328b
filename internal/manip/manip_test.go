package manip

import (
	"testing"

	"gameofcoins/internal/chain"
	"gameofcoins/internal/market"
	"gameofcoins/internal/mining"
	"gameofcoins/internal/sim"
)

func newSim(t *testing.T) *sim.Simulator {
	t.Helper()
	mk := func(name string) *market.CoinMarket {
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
		cm, err := market.NewCoinMarket(ch, &market.Piecewise{Times: []float64{0}, Rates: []float64{2}}, 0.5, 600)
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	s, err := sim.New(sim.Config{
		Coins: []*market.CoinMarket{mk("a"), mk("b")},
		Agents: []mining.Agent{
			{Name: "m1", Power: 3, Policy: mining.BetterResponse{}},
			{Name: "m2", Power: 2, Policy: mining.BetterResponse{}},
			{Name: "m3", Power: 1, Policy: mining.BetterResponse{}},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWhaleTxRaisesWeightAndCharges(t *testing.T) {
	s := newSim(t)
	var l Ledger
	w0 := s.Coins()[1].Weight()
	if err := WhaleTx(s, &l, 1, 50); err != nil {
		t.Fatal(err)
	}
	if got := s.Coins()[1].Weight(); got <= w0 {
		t.Fatalf("weight %v did not rise from %v", got, w0)
	}
	// Cost = fee × rate = 50 × 2.
	if l.Total() != 100 {
		t.Fatalf("ledger total = %v, want 100", l.Total())
	}
	evs := l.Events()
	if len(evs) != 1 || evs[0].Kind != "whale-tx" || evs[0].Coin != 1 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestWhaleTxValidation(t *testing.T) {
	s := newSim(t)
	var l Ledger
	if err := WhaleTx(s, &l, 5, 1); err == nil {
		t.Fatal("invalid coin accepted")
	}
	if err := WhaleTx(s, &l, 0, 0); err == nil {
		t.Fatal("zero fee accepted")
	}
	if l.Total() != 0 {
		t.Fatal("failed actions charged the ledger")
	}
}

func TestWhaleAttractsMiners(t *testing.T) {
	// A large standing whale subsidy on coin b must pull hashrate there.
	s := newSim(t)
	var l Ledger
	for e := 0; e < 30; e++ {
		// Re-inject every epoch to keep the weight inflated.
		_ = WhaleTx(s, &l, 1, 200)
		s.Run(1)
	}
	powers := s.CoinPowers()
	if powers[1] <= powers[0] {
		t.Fatalf("whale-subsidized coin did not attract the majority: %v", powers)
	}
	if l.Total() <= 0 {
		t.Fatal("no cost recorded")
	}
}
