package gameofcoins_test

// One benchmark per reproduced table/figure (DESIGN.md §6, EXPERIMENTS.md).
// Each bench regenerates its experiment end to end, so `go test -bench=.`
// doubles as the reproduction harness; per-iteration workloads are the same
// fixed-seed workloads the experiment suite validates.

import (
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/design"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/experiments"
	"gameofcoins/internal/learning"
	"gameofcoins/internal/potential"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/rng"
)

// BenchmarkE1BtcBchMigration regenerates Figure 1 (rate swing → hashrate
// migration) on a reduced fleet per iteration.
func BenchmarkE1BtcBchMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := replay.New(replay.ScenarioParams{
			Miners:    100,
			Epochs:    24 * 40,
			SpikeHour: 24 * 15,
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		sc.Run()
		out := sc.Outcome()
		if out.PeakBCHShare <= out.PreSpikeBCHShare {
			b.Fatal("no migration")
		}
	}
}

// BenchmarkE2RewardDesignTrace regenerates Figure 2 (Algorithm 2 stages).
func BenchmarkE2RewardDesignTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E2(uint64(i + 1)); !rep.Pass {
			b.Fatalf("E2 failed:\n%s", rep)
		}
	}
}

// BenchmarkE3ExactPotentialCycle verifies Proposition 1's 4-cycle in exact
// arithmetic plus the float-engine witness search.
func BenchmarkE3ExactPotentialCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E3(); !rep.Pass {
			b.Fatal("E3 failed")
		}
	}
}

// BenchmarkE4Convergence measures better-response convergence (Theorem 1)
// per game size; sub-benchmarks give the table's rows.
func BenchmarkE4Convergence(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		for _, m := range []int{2, 8} {
			b.Run(benchName("n", n, "m", m), func(b *testing.B) {
				r := rng.New(uint64(n*100 + m))
				g, err := core.RandomGame(r, core.GenSpec{Miners: n, Coins: m})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s0 := core.RandomConfig(r, g)
					res, err := learning.Run(g, s0, learning.NewRandom(), r.Split(), learning.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatal("did not converge")
					}
				}
			})
		}
	}
}

// BenchmarkE5SymmetricPotential measures the Appendix-B potential check
// along a full improving path.
func BenchmarkE5SymmetricPotential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E5(uint64(i + 1)); !rep.Pass {
			b.Fatal("E5 failed")
		}
	}
}

// BenchmarkE6BetterEquilibrium measures equilibrium enumeration plus the
// Proposition-2 dominating-equilibrium search.
func BenchmarkE6BetterEquilibrium(b *testing.B) {
	r := rng.New(6)
	g, err := core.RandomGame(r, core.GenSpec{Miners: 6, Coins: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eqs, err := equilibria.Enumerate(g)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range eqs {
			_, _ = equilibria.BetterEquilibriumFor(g, e)
		}
	}
}

// BenchmarkE7DesignTermination measures a full Algorithm-2 run between two
// equilibria (Theorem 2).
func BenchmarkE7DesignTermination(b *testing.B) {
	g := benchDesignGame(b)
	eqs, err := equilibria.Enumerate(g)
	if err != nil || len(eqs) < 2 {
		b.Fatalf("equilibria: %v (%d)", err, len(eqs))
	}
	d, err := design.NewDesigner(g, design.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Run(eqs[0], eqs[len(eqs)-1], r.Split())
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalSteps == 0 {
			b.Fatal("trivial run")
		}
	}
}

// BenchmarkE8ConvergenceSpeed measures steps-to-equilibrium per scheduler
// (the §6 open-question series).
func BenchmarkE8ConvergenceSpeed(b *testing.B) {
	for _, sched := range learning.AllSchedulers() {
		b.Run(sched.Name(), func(b *testing.B) {
			r := rng.New(8)
			g, err := core.RandomGame(r, core.GenSpec{Miners: 32, Coins: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s0 := core.RandomConfig(r, g)
				if _, err := learning.Run(g, s0, freshScheduler(sched.Name()), r.Split(), learning.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9WhaleROI measures the manipulation-economics pipeline:
// equilibrium enumeration, dominating-equilibrium search, and design cost.
func BenchmarkE9WhaleROI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E9(uint64(i + 1)); !rep.Pass {
			b.Fatalf("E9 failed:\n%s", rep)
		}
	}
}

// BenchmarkE10Asymmetric measures convergence on eligibility-restricted
// games (§6 asymmetric extension).
func BenchmarkE10Asymmetric(b *testing.B) {
	g, err := core.NewGame(
		[]core.Miner{
			{Name: "p1", Power: 13}, {Name: "p2", Power: 11}, {Name: "p3", Power: 7},
			{Name: "p4", Power: 5}, {Name: "p5", Power: 3}, {Name: "p6", Power: 2},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{17, 19, 23},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool {
			return (p+c)%3 != 0 || p < 2
		}),
	)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s0 := core.RandomConfig(r, g)
		res, err := learning.Run(g, s0, learning.NewRandom(), r.Split(), learning.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !g.IsEquilibrium(res.Final) {
			b.Fatal("not an equilibrium")
		}
	}
}

// BenchmarkCorePayoff and friends measure the hot-path primitives.
func BenchmarkCorePayoff(b *testing.B) {
	r := rng.New(20)
	g, err := core.RandomGame(r, core.GenSpec{Miners: 64, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	s := core.RandomConfig(r, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Payoffs(s)
	}
}

func BenchmarkCoreIsEquilibrium(b *testing.B) {
	r := rng.New(21)
	g, err := core.RandomGame(r, core.GenSpec{Miners: 64, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	s := core.RandomConfig(r, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.IsEquilibrium(s)
	}
}

func BenchmarkPotentialList(b *testing.B) {
	r := rng.New(22)
	g, err := core.RandomGame(r, core.GenSpec{Miners: 64, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	s := core.RandomConfig(r, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = potential.List(g, s)
	}
}

func benchName(parts ...any) string {
	out := ""
	for i := 0; i+1 < len(parts); i += 2 {
		if i > 0 {
			out += "_"
		}
		out += parts[i].(string) + "=" + itoa(parts[i+1].(int))
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func freshScheduler(name string) learning.Scheduler {
	for _, s := range learning.AllSchedulers() {
		if s.Name() == name {
			return s
		}
	}
	panic("unknown scheduler")
}

func benchDesignGame(b *testing.B) *core.Game {
	b.Helper()
	g, err := core.NewGame(
		[]core.Miner{
			{Name: "p1", Power: 13}, {Name: "p2", Power: 11}, {Name: "p3", Power: 7},
			{Name: "p4", Power: 5}, {Name: "p5", Power: 3},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{17, 19},
	)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkE11SecurityTrajectory measures the security-metric sweep along a
// full reward-design run.
func BenchmarkE11SecurityTrajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E11(uint64(i + 1)); !rep.Pass {
			b.Fatalf("E11 failed:\n%s", rep)
		}
	}
}

// BenchmarkE12SimultaneousAblation measures the simultaneous-vs-sequential
// dynamics comparison.
func BenchmarkE12SimultaneousAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E12(uint64(i + 1)); !rep.Pass {
			b.Fatalf("E12 failed:\n%s", rep)
		}
	}
}

// BenchmarkE13NaiveBaseline measures the staged-vs-naive design ablation.
func BenchmarkE13NaiveBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.E13(uint64(i + 1)); !rep.Pass {
			b.Fatalf("E13 failed:\n%s", rep)
		}
	}
}
