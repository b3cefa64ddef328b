// Package gameofcoins is a Go implementation of "Game of Coins"
// (Spiegelman, Keidar, Tennenholtz — ICDCS 2021): strategic mining in
// multi-cryptocurrency markets as a game, convergence of arbitrary
// better-response learning to pure equilibrium, and dynamic reward design
// that steers learners between equilibria at bounded cost.
//
// This package is the stable public facade; it re-exports the library's
// types and constructors so users never import internal packages directly.
//
// # Quick start
//
//	g, err := gameofcoins.NewGame(
//		[]gameofcoins.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}, {Name: "p4", Power: 2}},
//		[]gameofcoins.Coin{{Name: "btc"}, {Name: "bch"}},
//		[]float64{17, 9},
//	)
//	res, err := gameofcoins.Learn(g, gameofcoins.UniformConfig(4, 0), gameofcoins.NewRandomScheduler(), gameofcoins.NewRand(1), gameofcoins.LearnOptions{})
//	// res.Final is a pure equilibrium (Theorem 1 guarantees convergence).
//
// # Concurrent experiment engine and gocserve
//
// Heavy workloads — learning sweeps across schedulers and seeds, reward
// design runs, market-simulator replays, equilibrium enumeration over
// random games — run through the concurrent experiment engine:
//
//	eng := gameofcoins.NewEngine(0) // 0 = all cores
//	res, err := gameofcoins.RunJob(ctx, eng, gameofcoins.LearnSweep{
//		Gen:  gameofcoins.GenSpec{Miners: 32, Coins: 4},
//		Runs: 100,
//	}, 11)
//
// The engine forks one deterministic rng stream per task index
// (Rand.Fork), so results are bit-identical for any worker count and any
// scheduling order; the same guarantee makes the in-memory result cache of
// the HTTP service sound. Scheduling is fair: concurrent jobs share the
// worker pool evenly, each take going to the job with the fewest tasks in
// flight, instead of queueing behind each other.
// NewServer returns that service in memory — the handler cmd/gocserve
// serves, which adds persistence, admission control and the gocworker
// fleet on top — with POST /v2/games for game registration, POST /v2/jobs for versioned job
// envelopes (each answered with a reference-counted handle), GET
// /v2/jobs/{handle} and its /result and /events (SSE) views, and DELETE
// /v2/jobs/{handle} to release the handle; NewClient is its Go SDK.
// cmd/gocbench's -parallel flag drives the E1–E13 paper reproduction
// through the same engine.
//
// See the examples/ directory for runnable scenarios, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-reproduction results.
package gameofcoins

import (
	"gameofcoins/internal/core"
	"gameofcoins/internal/design"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/learning"
	"gameofcoins/internal/potential"
	"gameofcoins/internal/rng"
)

// Core game model (internal/core).
type (
	// Miner is a player with mining power (the paper's p with m_p).
	Miner = core.Miner
	// Coin is a resource miners compete over.
	Coin = core.Coin
	// Game is an immutable game instance G_{Π,C,F}.
	Game = core.Game
	// Config assigns each miner a coin (the paper's s ∈ Cⁿ).
	Config = core.Config
	// MinerID indexes miners in descending-power order.
	MinerID = core.MinerID
	// CoinID indexes coins.
	CoinID = core.CoinID
	// GameOption configures NewGame.
	GameOption = core.Option
	// GenSpec parameterizes RandomGame.
	GenSpec = core.GenSpec
)

// NewGame constructs a game from miners, coins, and the reward function F
// (rewards[c] = F(c)). Miners are sorted by descending power.
func NewGame(miners []Miner, coins []Coin, rewards []float64, opts ...GameOption) (*Game, error) {
	return core.NewGame(miners, coins, rewards, opts...)
}

// WithEpsilon sets the relative tolerance for payoff comparisons.
func WithEpsilon(eps float64) GameOption { return core.WithEpsilon(eps) }

// WithEligibility restricts which miners may mine which coins (the paper's
// §6 asymmetric extension).
func WithEligibility(allowed func(p MinerID, c CoinID) bool) GameOption {
	return core.WithEligibility(allowed)
}

// UniformConfig puts all n miners on coin c.
func UniformConfig(n int, c CoinID) Config { return core.UniformConfig(n, c) }

// RandomGame draws a random game for experimentation.
func RandomGame(r *Rand, spec GenSpec) (*Game, error) { return core.RandomGame(r, spec) }

// RandomConfig draws a uniform random valid configuration.
func RandomConfig(r *Rand, g *Game) Config { return core.RandomConfig(r, g) }

// Deterministic randomness (internal/rng).
type (
	// Rand is the library's deterministic splittable PRNG.
	Rand = rng.Rand
)

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Better-response learning (internal/learning).
type (
	// Scheduler picks which improving move is played next; Theorem 1
	// guarantees convergence for every implementation.
	Scheduler = learning.Scheduler
	// LearnOptions configure Learn.
	LearnOptions = learning.Options
	// LearnResult reports a finished learning run.
	LearnResult = learning.Result
	// Move is one better-response step.
	Move = learning.Move
)

// Learn runs better-response dynamics from s0 until a pure equilibrium.
func Learn(g *Game, s0 Config, sched Scheduler, r *Rand, opts LearnOptions) (LearnResult, error) {
	return learning.Run(g, s0, sched, r, opts)
}

// Scheduler constructors.
func NewRoundRobinScheduler() Scheduler    { return learning.NewRoundRobin() }
func NewRandomScheduler() Scheduler        { return learning.NewRandom() }
func NewMaxGainScheduler() Scheduler       { return learning.NewMaxGain() }
func NewMinGainScheduler() Scheduler       { return learning.NewMinGain() }
func NewSmallestFirstScheduler() Scheduler { return learning.NewSmallestFirst() }
func NewLargestFirstScheduler() Scheduler  { return learning.NewLargestFirst() }

// AllSchedulers returns a fresh instance of every built-in scheduler.
func AllSchedulers() []Scheduler { return learning.AllSchedulers() }

// Equilibria (internal/equilibria).

// ConstructEquilibrium builds a pure equilibrium constructively
// (Appendix A / Proposition 3).
func ConstructEquilibrium(g *Game) (Config, error) { return equilibria.Construct(g) }

// TwoDistinctEquilibria builds two different pure equilibria (Lemma 2;
// requires Assumptions 1–2 in general).
func TwoDistinctEquilibria(g *Game) (Config, Config, error) { return equilibria.TwoDistinct(g) }

// EnumerateEquilibria lists every pure equilibrium of a small game.
func EnumerateEquilibria(g *Game) ([]Config, error) { return equilibria.Enumerate(g) }

// Improvement is a Proposition-2 witness.
type Improvement = equilibria.Improvement

// BetterEquilibriumFor finds a miner who strictly prefers another
// equilibrium (Proposition 2).
func BetterEquilibriumFor(g *Game, s Config) (Improvement, error) {
	return equilibria.BetterEquilibriumFor(g, s)
}

// Ordinal potential (internal/potential).

// PotentialLess reports whether the Theorem-1 ordinal potential of s is
// strictly below that of sp; it increases along every better-response step.
func PotentialLess(g *Game, s, sp Config) bool { return potential.Less(g, s, sp) }

// Reward design (internal/design).
type (
	// Designer runs the Section-5 dynamic reward design mechanism.
	Designer = design.Designer
	// DesignOptions configure a Designer.
	DesignOptions = design.Options
	// DesignResult reports a completed run: stages, phases, steps, cost.
	DesignResult = design.Result
)

// NewDesigner builds a reward designer over the base game g.
func NewDesigner(g *Game, opts DesignOptions) (*Designer, error) {
	return design.NewDesigner(g, opts)
}
