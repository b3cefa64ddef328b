package gameofcoins

import (
	"context"
	"net/http"

	"gameofcoins/client"
	"gameofcoins/internal/design"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/exact"
	"gameofcoins/internal/learning"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/security"
	"gameofcoins/internal/server"
)

// Extended facade: ablations, verification, security analysis, and the
// serving stack.

// SimultaneousResult reports a LearnSimultaneous run.
type SimultaneousResult = learning.SimultaneousResult

// LearnSimultaneous runs the simultaneous-best-response ablation dynamic:
// unlike the sequential model Theorem 1 covers, it may cycle (Result.Cycled).
func LearnSimultaneous(g *Game, s0 Config, maxRounds int) (SimultaneousResult, error) {
	return learning.RunSimultaneous(g, s0, maxRounds)
}

// NaiveDesignResult reports a NaiveOneShotDesign attempt.
type NaiveDesignResult = design.NaiveResult

// NaiveOneShotDesign is the baseline manipulation strategy the staged
// Designer is measured against: a single subsidy shot followed by
// relaxation. It frequently misses the target (see EXPERIMENTS.md E13).
func NaiveOneShotDesign(g *Game, s0, sf Config, sched Scheduler, r *Rand) (NaiveDesignResult, error) {
	return design.NaiveOneShot(g, s0, sf, sched, r)
}

// CoinSecurity is the per-coin decentralization snapshot (max miner share,
// HHI, Nakamoto coefficient).
type CoinSecurity = security.CoinReport

// SecuritySnapshot computes per-coin decentralization metrics for s.
func SecuritySnapshot(g *Game, s Config) []CoinSecurity { return security.Snapshot(g, s) }

// Insecure reports whether any non-empty coin of s has a 51% attacker.
func Insecure(g *Game, s Config) bool { return security.Insecure(g, s) }

// EngineDisagreement is a configuration/miner/coin triple on which the fast
// float engine and the exact rational engine disagree about a better
// response — evidence of a near-tie the epsilon resolves.
type EngineDisagreement = exact.Disagreement

// CrossValidate compares every better-response decision of the float engine
// against exact big.Rat arithmetic at configuration s.
func CrossValidate(g *Game, s Config) []EngineDisagreement { return exact.CrossValidate(g, s) }

// PayoffSpread is a miner's min/max payoff across a set of equilibria.
type PayoffSpread = equilibria.PayoffSpread

// EquilibriumSpreads computes per-miner payoff spreads over equilibria —
// the redistribution a Section-5 manipulator can shop from.
func EquilibriumSpreads(g *Game, eqs []Config) []PayoffSpread { return equilibria.Spreads(g, eqs) }

// BestEquilibriumFor returns the equilibrium in eqs that maximizes miner
// p's payoff, and that payoff.
func BestEquilibriumFor(g *Game, eqs []Config, p MinerID) (Config, float64) {
	return equilibria.BestTargetFor(g, eqs, p)
}

// Concurrent experiment engine (internal/engine), the gocserve HTTP service
// (internal/server) and its Go SDK (package client). The engine fans
// deterministic job specs across a worker pool; results are bit-identical
// for any worker count because every task draws from an index-forked rng
// stream (Rand.Fork). The facade keeps what a program needs to run the
// paper's sweeps in-process or serve them; cmd/gocserve and cmd/gocworker
// configure persistence, admission control and the worker fleet through the
// internal packages.
type (
	// Engine runs one job spec synchronously over a worker pool.
	Engine = engine.Engine
	// EngineSpec is a typed, deterministic, parallelizable job.
	EngineSpec = engine.Spec

	// LearnSweep sweeps better-response learning across schedulers and
	// seeds on a fixed or randomly generated game.
	LearnSweep = engine.LearnSweep
	// LearnSweepResult aggregates per-scheduler convergence statistics.
	LearnSweepResult = engine.LearnSweepResult
	// DesignSweep runs the Section-5 reward-design mechanism on random games.
	DesignSweep = engine.DesignSweep
	// DesignSweepResult aggregates design cost/steps statistics.
	DesignSweepResult = engine.DesignSweepResult
	// ReplaySweep replays the Figure-1 market scenario across derived seeds.
	ReplaySweep = engine.ReplaySweep
	// ReplaySweepResult aggregates migration outcomes.
	ReplaySweepResult = engine.ReplaySweepResult
	// EquilibriumSweep enumerates pure equilibria over random games.
	EquilibriumSweep = engine.EquilibriumSweep
	// EquilibriumSweepResult aggregates the equilibrium-count distribution.
	EquilibriumSweepResult = engine.EquilibriumSweepResult

	// ReplayScenarioParams tune the synthetic Figure-1 replay scenario.
	ReplayScenarioParams = replay.ScenarioParams

	// Server is the gocserve HTTP handler (games, jobs, results, cache).
	Server = server.Server

	// Client is the typed Go SDK for the gocserve v2 API (package client).
	Client = client.Client
	// ClientOption configures a Client (client.WithHTTPClient,
	// client.WithFingerprint, …).
	ClientOption = client.Option
)

// NewEngine returns a worker-pool engine; workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// RunJob executes spec on e and returns its aggregated result. The seed
// roots all job randomness; results do not depend on e's worker count.
func RunJob(ctx context.Context, e *Engine, spec EngineSpec, seed uint64) (any, error) {
	return e.Run(ctx, spec, seed, nil)
}

// NewServer returns the gocserve HTTP handler backed by a fresh engine with
// the given worker count and no persistence. Mount it on any mux or serve it
// directly; call Server.Close during shutdown to cancel running jobs.
func NewServer(workers int) *Server { return server.New(workers) }

// NewClient returns the typed SDK client for a gocserve instance at url.
// Options pin behavior per client — e.g. client.WithFingerprint(fp) asserts
// every submission against a captured catalog fingerprint (409 on drift).
func NewClient(url string, opts ...ClientOption) *Client { return client.New(url, opts...) }

// Compile-time check that the facade server is a plain http.Handler.
var _ http.Handler = (*Server)(nil)
