package mining

import (
	"testing"

	"gameofcoins/internal/rng"
)

func decision() Decision {
	return Decision{
		Current:    0,
		Weights:    []float64{100, 300},
		CoinPowers: []float64{10, 10},
		Power:      5,
	}
}

func TestBetterResponseMovesToBetterCoin(t *testing.T) {
	// Stay: 100·5/10 = 50. Move: 300·5/15 = 100.
	p := BetterResponse{}
	if got := p.Decide(decision(), rng.New(1)); got != 1 {
		t.Fatalf("Decide = %d, want 1", got)
	}
}

func TestBetterResponseStaysWhenBest(t *testing.T) {
	d := decision()
	d.Weights = []float64{300, 100}
	if got := (BetterResponse{}).Decide(d, rng.New(1)); got != 0 {
		t.Fatalf("Decide = %d, want 0", got)
	}
}

func TestBetterResponseHysteresis(t *testing.T) {
	// Gain from moving: stay 50 vs move 300·5/15 = 100 → +100%. A 200%
	// hysteresis blocks it; a 50% hysteresis allows it.
	d := decision()
	if got := (BetterResponse{Hysteresis: 2.0}).Decide(d, rng.New(1)); got != 0 {
		t.Fatalf("high hysteresis moved: %d", got)
	}
	if got := (BetterResponse{Hysteresis: 0.5}).Decide(d, rng.New(1)); got != 1 {
		t.Fatalf("low hysteresis stayed: %d", got)
	}
}

func TestBetterResponseSelfCongestion(t *testing.T) {
	// The mover's own power must congest the destination: weight 110 on an
	// empty coin vs staying at 100 alone. Stay: 100·5/5 = 100. Move:
	// 110·5/(0+5) = 110 → should move. But with destination power 10:
	// 110·5/15 ≈ 36.7 → should stay.
	d := Decision{Current: 0, Weights: []float64{100, 110}, CoinPowers: []float64{5, 0}, Power: 5}
	if got := (BetterResponse{}).Decide(d, rng.New(1)); got != 1 {
		t.Fatalf("empty destination: got %d", got)
	}
	d.CoinPowers = []float64{5, 10}
	if got := (BetterResponse{}).Decide(d, rng.New(1)); got != 0 {
		t.Fatalf("congested destination: got %d", got)
	}
}

func TestStickyActivityGate(t *testing.T) {
	r := rng.New(7)
	moved := 0
	const trials = 2000
	p := Sticky{Activity: 0.25, Inner: BetterResponse{}}
	for i := 0; i < trials; i++ {
		if p.Decide(decision(), r) != 0 {
			moved++
		}
	}
	// Moves only when active: expect ≈ 25%.
	if moved < trials/5 || moved > trials/3 {
		t.Fatalf("sticky moved %d/%d times, want ≈25%%", moved, trials)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{BetterResponse{}, Sticky{Inner: BetterResponse{}, Activity: 0.5}} {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}

func TestValidateAgents(t *testing.T) {
	good := []Agent{{Name: "a", Power: 1, Policy: BetterResponse{}}}
	if err := ValidateAgents(good); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]Agent{
		"empty":         {},
		"zero power":    {{Name: "a", Power: 0, Policy: BetterResponse{}}},
		"nil policy":    {{Name: "a", Power: 1}},
		"negative cost": {{Name: "a", Power: 1, Policy: BetterResponse{}, CostPerHour: -1}},
	}
	for name, agents := range cases {
		if err := ValidateAgents(agents); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
