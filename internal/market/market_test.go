package market

import (
	"math"
	"testing"

	"gameofcoins/internal/chain"
	"gameofcoins/internal/rng"
)

// flat is a constant exchange rate: a one-knot piecewise path.
func flat(rate float64) *Piecewise { return &Piecewise{Times: []float64{0}, Rates: []float64{rate}} }

func TestPiecewise(t *testing.T) {
	pw, err := NewPiecewise([]float64{0, 10, 20}, []float64{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if pw.Rate() != 1 {
		t.Fatalf("rate at 0 = %v", pw.Rate())
	}
	pw.Step(5)
	if got := pw.Rate(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("rate at 5 = %v, want 2 (midpoint)", got)
	}
	pw.Step(5)
	if got := pw.Rate(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("rate at 10 = %v, want 3 (knot)", got)
	}
	pw.Step(100)
	if got := pw.Rate(); got != 2 {
		t.Fatalf("rate past end = %v, want 2 (held)", got)
	}
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise(nil, nil); err == nil {
		t.Fatal("empty knots accepted")
	}
	if _, err := NewPiecewise([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing times accepted")
	}
	if _, err := NewPiecewise([]float64{0}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func newTestChain(t *testing.T) *chain.Chain {
	t.Helper()
	ch, err := chain.New(chain.Params{
		Name:               "x",
		TargetBlockSeconds: 600,
		RetargetWindow:     100,
		MaxRetargetFactor:  4,
		BlockSubsidy:       6.25,
		InitialDifficulty:  600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestCoinMarketWeight(t *testing.T) {
	ch := newTestChain(t)
	cm, err := NewCoinMarket(ch, flat(10000), 0.5, 600)
	if err != nil {
		t.Fatal(err)
	}
	// 6 blocks/hour · (6.25 + 0.5) coin/block · 10000 fiat/coin
	want := 6 * 6.75 * 10000.0
	if got := cm.Weight(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("weight = %v, want %v", got, want)
	}
	// Whale fees raise the weight.
	if err := ch.InjectFees(10); err != nil {
		t.Fatal(err)
	}
	if got := cm.Weight(); got <= want {
		t.Fatalf("weight ignores pending fees: %v", got)
	}
}

func TestNewCoinMarketValidation(t *testing.T) {
	ch := newTestChain(t)
	if _, err := NewCoinMarket(nil, flat(1), 0, 600); err == nil {
		t.Fatal("nil chain accepted")
	}
	if _, err := NewCoinMarket(ch, nil, 0, 600); err == nil {
		t.Fatal("nil rate accepted")
	}
	if _, err := NewCoinMarket(ch, flat(1), -1, 600); err == nil {
		t.Fatal("negative fees accepted")
	}
	if _, err := NewCoinMarket(ch, flat(1), 0, 0); err == nil {
		t.Fatal("zero block time accepted")
	}
}

func TestProfitabilityIndex(t *testing.T) {
	weights := []float64{600, 600}
	powers := []float64{100, 50}
	// A 10-power miner: coin 1 is less crowded, so more profitable.
	idx := ProfitabilityIndex(weights, powers, 10, 0)
	if idx[0].Coin != 1 {
		t.Fatalf("top coin = %d, want 1", idx[0].Coin)
	}
	if idx[0].ProfitPerHour <= idx[1].ProfitPerHour {
		t.Fatal("index not sorted by profit")
	}
	// Revenue math: 600·10/60 = 100 on coin 1.
	if math.Abs(idx[0].ProfitPerHour-100) > 1e-9 {
		t.Fatalf("profit = %v, want 100", idx[0].ProfitPerHour)
	}
}

func TestProfitabilityIndexCosts(t *testing.T) {
	idx := ProfitabilityIndex([]float64{100}, []float64{0}, 1, 150)
	if idx[0].ProfitPerHour >= 0 {
		t.Fatalf("electricity cost ignored: %v", idx[0].ProfitPerHour)
	}
	// Zero-power miner earns nothing.
	idx = ProfitabilityIndex([]float64{100}, []float64{10}, 0, 0)
	if idx[0].ProfitPerHour != 0 {
		t.Fatalf("zero-power profit = %v", idx[0].ProfitPerHour)
	}
}

func TestCoinMarketWeightTracksHalving(t *testing.T) {
	ch, err := chain.New(chain.Params{
		Name:               "halver",
		TargetBlockSeconds: 600,
		RetargetWindow:     100,
		MaxRetargetFactor:  4,
		BlockSubsidy:       8,
		HalvingInterval:    5,
		InitialDifficulty:  600,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCoinMarket(ch, flat(1), 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	w0 := cm.Weight() // 6 blocks/h · 8 coin · 1
	if math.Abs(w0-48) > 1e-9 {
		t.Fatalf("pre-halving weight = %v", w0)
	}
	r := rng.New(12)
	for mined := 0; mined < 5; {
		mined += len(ch.Advance(r, 60, 1))
	}
	if cm.Weight() >= w0 {
		t.Fatalf("weight %v did not drop after halving (was %v)", cm.Weight(), w0)
	}
}
