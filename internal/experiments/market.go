package experiments

import (
	"fmt"

	"gameofcoins/internal/core"
	"gameofcoins/internal/design"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/stats"
	"gameofcoins/internal/trace"
)

// E1 regenerates Figure 1: the BTC→BCH hashrate migration driven by the
// November-2017 exchange-rate swing, on the synthetic replay scenario.
func E1(seed uint64) *Report {
	rep := &Report{
		ID:    "E1",
		Title: "Figure 1 — BTC/BCH exchange rates and hashrate migration",
		Claim: "a sharp BCH/BTC rate swing pulls miners from BTC to BCH; hashrate tracks relative profitability",
	}
	sc, err := replay.New(replay.ScenarioParams{
		Miners:    150,
		Epochs:    24 * 75,
		SpikeHour: 24 * 30,
		Seed:      seed,
	})
	if err != nil {
		rep.Notes = append(rep.Notes, err.Error())
		return rep
	}
	sc.Run()
	out := sc.Outcome()

	// Relative rate series for the (a) panel.
	rel := trace.NewSeries("bch/btc rate")
	btc := sc.Sim.RateSeries[sc.BTC]
	bch := sc.Sim.RateSeries[sc.BCH]
	for i := range bch.Xs {
		rel.Add(bch.Xs[i], bch.Ys[i]/btc.Ys[i])
	}
	rep.Plots = append(rep.Plots,
		trace.Plot(trace.PlotOptions{Title: "(a) BCH/BTC relative exchange rate", Width: 64, Height: 10}, rel),
		trace.Plot(trace.PlotOptions{Title: "(b) BCH hashrate share", Width: 64, Height: 10},
			sc.Sim.ShareSeries[sc.BCH]),
	)
	corr := stats.Correlation(rel.Ys, sc.Sim.ShareSeries[sc.BCH].Ys)
	tbl := trace.NewTable("metric", "value")
	tbl.AddRow("pre-spike BCH share", out.PreSpikeBCHShare)
	tbl.AddRow("peak BCH share", out.PeakBCHShare)
	tbl.AddRow("final BCH share", out.FinalBCHShare)
	tbl.AddRow("rate/share correlation", corr)
	rep.Table = tbl
	rep.Pass = out.PeakBCHShare > 1.8*out.PreSpikeBCHShare && corr > 0.5
	rep.Notes = append(rep.Notes,
		"expected shape (paper Fig. 1): share spikes with the rate swing and relaxes as RPUs equalize",
		"synthetic substitution for bitinfocharts data; see DESIGN.md §1")
	return rep
}

// E9 measures manipulation economics: the bounded reward-design cost of
// buying a preferred equilibrium versus the indefinite per-epoch payoff gain
// at the destination (§1's "finite cost, indefinite advantage").
func E9(seed uint64) *Report {
	rep := &Report{
		ID:    "E9",
		Title: "§1/§5 — whale-attack return on investment",
		Claim: "a manipulator pays a finite reward-design cost and gains a payoff advantage indefinitely",
	}
	r := rng.New(seed)
	tbl := trace.NewTable("game", "miner", "design cost", "gain/epoch", "breakeven epochs")
	rows := 0
	rep.Pass = true
	for trial := 0; trial < 200 && rows < 8; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 5, Coins: 2})
		if err != nil {
			continue
		}
		strict := true
		for p := 0; p+1 < g.NumMiners(); p++ {
			if !(g.Power(p) > g.Power(p+1)) {
				strict = false
			}
		}
		if !strict {
			continue
		}
		eqs, err := equilibria.Enumerate(g)
		if err != nil || len(eqs) < 2 {
			continue
		}
		s0 := eqs[0]
		imp, err := equilibria.BetterEquilibriumFor(g, s0)
		if err != nil {
			continue
		}
		d, err := design.NewDesigner(g, design.Options{})
		if err != nil {
			continue
		}
		res, err := d.Run(s0, imp.Better, r.Split())
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("design failed: %v", err))
			rep.Pass = false
			continue
		}
		rows++
		breakeven := res.TotalCost / imp.Gain
		tbl.AddRow(rows, fmt.Sprintf("p%d", imp.Miner+1), res.TotalCost, imp.Gain, breakeven)
		if !(res.TotalCost > 0) || !(imp.Gain > 0) {
			rep.Pass = false
		}
	}
	rep.Table = tbl
	if rows == 0 {
		rep.Pass = false
	}
	rep.Notes = append(rep.Notes,
		"cost is Σ max(0, H(c)−F(c)) per learning phase; gain is the miner's payoff delta at the bought equilibrium",
		"breakeven = epochs after which the indefinite gain exceeds the bounded cost")
	return rep
}
