package replay

import (
	"math"
	"testing"

	"gameofcoins/internal/rng"
	"gameofcoins/internal/stats"
)

func smallParams() ScenarioParams {
	return ScenarioParams{
		Miners:    80,
		Epochs:    24 * 30, // one month
		SpikeHour: 240,
		Seed:      7,
	}
}

func TestScenarioBuilds(t *testing.T) {
	sc, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.BTC == sc.BCH {
		t.Fatal("coin indices collide")
	}
	// The fleet is Miners agents with Zipf powers, and every tenth starts on
	// BCH.
	powers := rng.Zipf(80, sc.Params.ZipfExponent, 1)
	var bch float64
	for i := 9; i < len(powers); i += 10 {
		bch += powers[i]
	}
	if got := sc.Sim.CoinPowers()[sc.BCH]; math.Abs(got-bch) > 1e-12 {
		t.Fatalf("BCH power = %v, want %v: the native cohort of an 80-agent fleet", got, bch)
	}
}

func TestDefaultsFilled(t *testing.T) {
	sc, err := New(ScenarioParams{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params.Miners != 200 || sc.Params.SpikeFactor != 3.2 {
		t.Fatalf("defaults not filled: %+v", sc.Params)
	}
}

// TestFigure1Shape is experiment E1's acceptance test: the BCH hashrate
// share must (a) start low, (b) spike substantially after the rate spike,
// and (c) the share series must correlate positively with the BCH/BTC
// relative rate.
func TestFigure1Shape(t *testing.T) {
	sc, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	sc.Run()
	out := sc.Outcome()
	if out.PreSpikeBCHShare > 0.25 {
		t.Fatalf("pre-spike BCH share %v too high", out.PreSpikeBCHShare)
	}
	if out.PeakBCHShare < out.PreSpikeBCHShare*1.8 {
		t.Fatalf("no migration spike: pre %v peak %v", out.PreSpikeBCHShare, out.PeakBCHShare)
	}
	// Correlate share with relative rate.
	shares := sc.Sim.ShareSeries[sc.BCH].Ys
	bch := sc.Sim.RateSeries[sc.BCH].Ys
	btc := sc.Sim.RateSeries[sc.BTC].Ys
	rel := make([]float64, len(bch))
	for i := range rel {
		rel[i] = bch[i] / btc[i]
	}
	if corr := stats.Correlation(rel, shares); corr < 0.5 {
		t.Fatalf("share/rate correlation %v < 0.5", corr)
	}
}

func TestOutcomeOnUnrunScenario(t *testing.T) {
	sc, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	out := sc.Outcome()
	if out.PreSpikeBCHShare != 0 || out.PeakBCHShare != 0 || out.FinalBCHShare != 0 {
		t.Fatalf("outcome of empty run = %+v", out)
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() Outcome {
		sc, err := New(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		sc.Run()
		return sc.Outcome()
	}
	if run() != run() {
		t.Fatal("scenario not reproducible under fixed seed")
	}
}
