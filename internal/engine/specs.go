package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"gameofcoins/internal/core"
	"gameofcoins/internal/design"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/learning"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/stats"
)

// The built-in job specs. Each is a plain JSON-encodable struct so gocserve
// can accept it on the wire, and each implements Spec with pure per-task
// functions so results are worker-count independent.

// LearnSweep runs better-response learning Runs times per scheduler, on a
// fixed Game or on fresh random games drawn from Gen, and aggregates
// steps-to-equilibrium statistics per scheduler.
type LearnSweep struct {
	// Game, if non-nil, is the fixed game every run plays. It must not be
	// mutated while the job runs (Game is immutable by construction).
	Game *core.Game `json:"game,omitempty"`
	// GameID references a game registered with the serving layer (gocserve's
	// POST /v2/games). It is an unresolved reference: the serving layer must
	// call ResolveGames before the spec can run, which replaces GameID with
	// the resolved Game so cache keys see only the game's canonical form.
	GameID string `json:"game_id,omitempty"`
	// Gen draws a fresh random game per run when Game is nil.
	Gen core.GenSpec `json:"gen,omitempty"`
	// Schedulers names the schedulers to sweep; empty means all built-ins.
	Schedulers []string `json:"schedulers,omitempty"`
	// Runs is the number of learning runs per scheduler.
	Runs int `json:"runs"`
	// MaxSteps caps each run (0 = learning's default).
	MaxSteps int `json:"max_steps,omitempty"`
}

// SchedulerSummary is the aggregate over one scheduler's runs.
type SchedulerSummary struct {
	Scheduler string        `json:"scheduler"`
	Runs      int           `json:"runs"`
	Converged int           `json:"converged"`
	Steps     stats.Summary `json:"steps"`
}

// LearnSweepResult is the aggregated result of a LearnSweep.
type LearnSweepResult struct {
	Schedulers []SchedulerSummary `json:"schedulers"`
	TotalRuns  int                `json:"total_runs"`
}

func (s LearnSweep) schedulerNames() []string {
	if len(s.Schedulers) > 0 {
		return s.Schedulers
	}
	var names []string
	for _, sched := range learning.AllSchedulers() {
		names = append(names, sched.Name())
	}
	return names
}

// Kind implements Spec.
func (s LearnSweep) Kind() string { return "learn_sweep" }

// Tasks implements Spec: one task per (scheduler, run) pair. The product
// saturates past MaxTasksPerJob instead of overflowing, so an absurd Runs
// is rejected by the engine's cap rather than wrapping to a small (or zero)
// task count.
func (s LearnSweep) Tasks() int {
	n := len(s.schedulerNames())
	if n <= 0 || s.Runs <= 0 {
		return 0
	}
	if s.Runs > MaxTasksPerJob/n {
		return MaxTasksPerJob + 1
	}
	return n * s.Runs
}

// ResolveGames implements GameRefSpec: a GameID reference is swapped for
// the game itself, and the generator spec is cleared (a fixed game overrides
// it), so the resolved spec is self-contained and canonical — two envelopes
// naming the same game by ID or by value produce identical cache keys.
func (s LearnSweep) ResolveGames(resolve GameResolver) (Spec, error) {
	if s.GameID == "" {
		return s, nil
	}
	if resolve == nil {
		return nil, fmt.Errorf("spec references game %q but no game resolver is available", s.GameID)
	}
	g, err := resolve(s.GameID)
	if err != nil {
		return nil, err
	}
	s.Game = g
	s.GameID = ""
	s.Gen = core.GenSpec{}
	return s, nil
}

// Validate implements Validator.
func (s LearnSweep) Validate() error {
	if s.GameID != "" {
		// An unresolved reference reaching the engine is a serving-layer bug;
		// running it would silently sweep random games instead of the named one.
		return fmt.Errorf("unresolved game reference %q (ResolveGames was not called)", s.GameID)
	}
	if s.Runs <= 0 {
		return errors.New("runs must be positive")
	}
	if s.Game == nil && (s.Gen.Miners <= 0 || s.Gen.Coins <= 0) {
		return errors.New("need a game or a generator spec")
	}
	for _, name := range s.schedulerNames() {
		if _, err := learning.SchedulerByName(name); err != nil {
			return err
		}
	}
	return nil
}

// learnTaskResult is LearnSweep's per-task wire value. Fields are exported
// (with stable JSON names) because distributable task results cross the
// gocworker wire through the TaskCoder round-trip; both int and bool
// round-trip exactly, so a remote task is byte-identical to a local one.
type learnTaskResult struct {
	Steps     int  `json:"steps"`
	Converged bool `json:"converged"`
}

// schedulerForTask resolves the (fresh, per-run) scheduler instance for
// task i with a single AllSchedulers construction; schedulers are stateful,
// so a new instance per task is required, but rebuilding the full name list
// twice per task is not.
func (s LearnSweep) schedulerForTask(i int) (learning.Scheduler, error) {
	idx := i / s.Runs
	if len(s.Schedulers) > 0 {
		return learning.SchedulerByName(s.Schedulers[idx])
	}
	return learning.AllSchedulers()[idx], nil
}

// TaskCost implements Sizer: a coarse relative prior — proportional to the
// game's miner×coin dimensions, doubled for the blind "random" scheduler,
// whose walks take more steps to converge than the gain-guided ones (the E8
// series measures exactly this spread). Only the ordering matters: a wrong
// estimate costs tail latency, never correctness.
func (s LearnSweep) TaskCost(i int) float64 {
	m, c := s.Gen.Miners, s.Gen.Coins
	if s.Game != nil {
		m, c = s.Game.NumMiners(), s.Game.NumCoins()
	}
	cost := float64(m * c)
	if cost <= 0 {
		cost = 1
	}
	// Resolve task i's scheduler without rebuilding the full default list
	// per call: TaskCost runs once per task at enqueue, and a sweep can fan
	// out to a million tasks.
	if s.Runs > 0 {
		idx := i / s.Runs
		switch {
		case len(s.Schedulers) > 0:
			if idx < len(s.Schedulers) && s.Schedulers[idx] == "random" {
				cost *= 2
			}
		case idx == 1: // AllSchedulers order: round-robin, random, …
			cost *= 2
		}
	}
	return cost
}

// RunTask implements Spec.
func (s LearnSweep) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sched, err := s.schedulerForTask(i)
	if err != nil {
		return nil, err
	}
	g := s.Game
	if g == nil {
		if g, err = core.RandomGame(r, s.Gen); err != nil {
			return nil, err
		}
	}
	res, err := learning.Run(g, core.RandomConfig(r, g), sched, r.Split(), learning.Options{MaxSteps: s.MaxSteps})
	if err != nil {
		return nil, err
	}
	return learnTaskResult{Steps: res.Steps, Converged: res.Converged && g.IsEquilibrium(res.Final)}, nil
}

// Aggregate implements Spec.
func (s LearnSweep) Aggregate(results []any) (any, error) {
	names := s.schedulerNames()
	out := LearnSweepResult{TotalRuns: len(results)}
	for si, name := range names {
		sum := SchedulerSummary{Scheduler: name, Runs: s.Runs}
		var steps []float64
		for run := 0; run < s.Runs; run++ {
			tr := results[si*s.Runs+run].(learnTaskResult)
			steps = append(steps, float64(tr.Steps))
			if tr.Converged {
				sum.Converged++
			}
		}
		sum.Steps = stats.Summarize(steps)
		out.Schedulers = append(out.Schedulers, sum)
	}
	return out, nil
}

// DesignSweep runs the Section-5 reward-design mechanism on random games:
// each task draws strictly-descending games from Gen until one has at least
// two equilibria, picks a random ordered equilibrium pair (s0, sf), and runs
// Algorithm 2.
type DesignSweep struct {
	Gen core.GenSpec `json:"gen"`
	// Pairs is the number of design runs.
	Pairs int `json:"pairs"`
	// MaxTries bounds the game search per task (default 500).
	MaxTries int `json:"max_tries,omitempty"`
}

// DesignSweepResult aggregates a DesignSweep.
type DesignSweepResult struct {
	Pairs   int           `json:"pairs"`
	Reached int           `json:"reached"`
	Skipped int           `json:"skipped"` // tasks that found no usable game
	Cost    stats.Summary `json:"cost"`
	Steps   stats.Summary `json:"steps"`
	// Errors counts game draws discarded because generation, enumeration,
	// or designer construction errored (as opposed to games that were
	// merely unusable); LastError samples one such error so a sweep whose
	// tasks all skipped for the same systematic reason is diagnosable.
	Errors    int    `json:"errors,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Kind implements Spec.
func (s DesignSweep) Kind() string { return "design_sweep" }

// Tasks implements Spec.
func (s DesignSweep) Tasks() int { return s.Pairs }

// TaskCost implements Sizer. Each task repeatedly enumerates equilibria of
// drawn games (up to MaxTries draws), and enumeration is exponential in game
// size, so the estimate is draws × enumeration cost. Every task of one sweep
// shares it — the true per-pair spread comes from random draws no prior can
// see — so dispatch within a sweep stays in index order (the stable sort)
// and the value is today a published size signal, not an ordering one: it
// feeds the ROADMAP follow-ups (cost-weighted fair share, observed-latency
// feedback) rather than changing current scheduling.
func (s DesignSweep) TaskCost(int) float64 {
	tries := s.MaxTries
	if tries <= 0 {
		tries = 500
	}
	return float64(tries) * enumCost(s.Gen)
}

// enumCost estimates the cost of enumerating one random game's equilibria:
// the configuration space is coins^miners.
func enumCost(gen core.GenSpec) float64 {
	if gen.Miners <= 0 || gen.Coins <= 0 {
		return 1
	}
	return math.Pow(float64(gen.Coins), float64(gen.Miners))
}

// Validate implements Validator.
func (s DesignSweep) Validate() error {
	if s.Pairs <= 0 {
		return errors.New("pairs must be positive")
	}
	if s.Gen.Miners <= 0 || s.Gen.Coins <= 0 {
		return errors.New("need a generator spec")
	}
	return nil
}

// designTaskResult is DesignSweep's per-task wire value; exported fields for
// the TaskCoder round-trip (see learnTaskResult). The float64 fields are
// safe to distribute: Go's JSON encoder emits shortest-round-trip decimals,
// so Unmarshal restores the identical bits.
type designTaskResult struct {
	Skipped bool    `json:"skipped,omitempty"`
	Reached bool    `json:"reached,omitempty"`
	Cost    float64 `json:"cost"`
	Steps   float64 `json:"steps"`
	Errs    int     `json:"errs,omitempty"`
	LastErr string  `json:"last_err,omitempty"`
}

// RunTask implements Spec. Draw errors (generation, enumeration, designer
// construction) are counted rather than aborting the task — many are
// expected transients of random generation — but they are surfaced in the
// aggregate so a systematically misconfigured sweep is not silently
// indistinguishable from "no usable games were drawn".
func (s DesignSweep) RunTask(ctx context.Context, _ int, r *rng.Rand) (any, error) {
	tries := s.MaxTries
	if tries <= 0 {
		tries = 500
	}
	var tr designTaskResult
	record := func(err error) {
		tr.Errs++
		tr.LastErr = err.Error()
	}
	for try := 0; try < tries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := core.RandomGame(r, s.Gen)
		if err != nil {
			record(err)
			continue
		}
		if !strictlyDescending(g) {
			continue
		}
		eqs, err := equilibria.Enumerate(g)
		if err != nil {
			record(err)
			continue
		}
		if len(eqs) < 2 {
			continue
		}
		i := r.Intn(len(eqs))
		j := r.Intn(len(eqs) - 1)
		if j >= i {
			j++
		}
		s0, sf := eqs[i], eqs[j]
		d, err := design.NewDesigner(g, design.Options{})
		if err != nil {
			record(err)
			continue
		}
		res, err := d.Run(s0, sf, r.Split())
		if err != nil {
			return nil, err
		}
		tr.Reached = res.Final.Equal(sf)
		tr.Cost = res.TotalCost
		tr.Steps = float64(res.TotalSteps)
		return tr, nil
	}
	tr.Skipped = true
	return tr, nil
}

// Aggregate implements Spec.
func (s DesignSweep) Aggregate(results []any) (any, error) {
	out := DesignSweepResult{Pairs: len(results)}
	var costs, steps []float64
	for _, raw := range results {
		tr := raw.(designTaskResult)
		out.Errors += tr.Errs
		if tr.LastErr != "" {
			out.LastError = tr.LastErr
		}
		if tr.Skipped {
			out.Skipped++
			continue
		}
		if tr.Reached {
			out.Reached++
		}
		costs = append(costs, tr.Cost)
		steps = append(steps, tr.Steps)
	}
	out.Cost = stats.Summarize(costs)
	out.Steps = stats.Summarize(steps)
	return out, nil
}

func strictlyDescending(g *core.Game) bool {
	for p := 0; p+1 < g.NumMiners(); p++ {
		if !(g.Power(p) > g.Power(p+1)) {
			return false
		}
	}
	return true
}

// ReplaySweep replays the market-simulator scenario Runs times with derived
// seeds and aggregates the migration outcomes.
type ReplaySweep struct {
	Params replay.ScenarioParams `json:"params"`
	Runs   int                   `json:"runs"`
}

// ReplaySweepResult aggregates a ReplaySweep.
type ReplaySweepResult struct {
	Runs     int           `json:"runs"`
	PreSpike stats.Summary `json:"pre_spike_share"`
	Peak     stats.Summary `json:"peak_share"`
	Final    stats.Summary `json:"final_share"`
	// Migrated counts runs whose peak share exceeded twice the pre-spike
	// share — the Figure-1 shape.
	Migrated int `json:"migrated"`
}

// Kind implements Spec.
func (s ReplaySweep) Kind() string { return "replay_sweep" }

// Tasks implements Spec.
func (s ReplaySweep) Tasks() int { return s.Runs }

// TaskCost implements Sizer: every run replays the same scenario, so cost is
// flat within a sweep — fleet size × simulated epochs, the knobs the replay
// loop scales with. Like DesignSweep's, a size signal, not a reordering.
func (s ReplaySweep) TaskCost(int) float64 {
	cost := float64(s.Params.Miners) * float64(s.Params.Epochs)
	if cost <= 0 {
		return 1
	}
	return cost
}

// Validate implements Validator.
func (s ReplaySweep) Validate() error {
	if s.Runs <= 0 {
		return errors.New("runs must be positive")
	}
	if s.Params.Seed != 0 {
		// Per-run seeds derive from the job seed; a caller setting the inner
		// seed expects it to matter, so rejecting beats silently dropping it.
		return errors.New("replay params.seed is ignored by sweeps: set the job-level seed field instead")
	}
	// ScenarioParams treats zero as "use default" but never guards against
	// negatives (e.g. Miners=-1 would panic allocating the agent fleet).
	p := s.Params
	if p.Miners < 0 || p.Epochs < 0 || p.SpikeHour < 0 ||
		p.ZipfExponent < 0 || p.SpikeFactor < 0 || p.Activity < 0 || p.Hysteresis < 0 {
		return errors.New("replay params must be non-negative")
	}
	return nil
}

// RunTask implements Spec.
func (s ReplaySweep) RunTask(ctx context.Context, _ int, r *rng.Rand) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := s.Params
	p.Seed = r.Uint64()
	sc, err := replay.New(p)
	if err != nil {
		return nil, err
	}
	// Step epoch by epoch so cancellation can interrupt a long replay.
	for e := 0; e < sc.Params.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.Sim.Run(1)
	}
	return sc.Outcome(), nil
}

// Aggregate implements Spec.
func (s ReplaySweep) Aggregate(results []any) (any, error) {
	out := ReplaySweepResult{Runs: len(results)}
	var pre, peak, final []float64
	for _, raw := range results {
		o := raw.(replay.Outcome)
		pre = append(pre, o.PreSpikeBCHShare)
		peak = append(peak, o.PeakBCHShare)
		final = append(final, o.FinalBCHShare)
		if o.PeakBCHShare > 2*o.PreSpikeBCHShare {
			out.Migrated++
		}
	}
	out.PreSpike = stats.Summarize(pre)
	out.Peak = stats.Summarize(peak)
	out.Final = stats.Summarize(final)
	return out, nil
}

// EquilibriumSweep enumerates the pure equilibria of Games random games
// drawn from Gen and aggregates the equilibrium-count distribution.
type EquilibriumSweep struct {
	Gen   core.GenSpec `json:"gen"`
	Games int          `json:"games"`
}

// EquilibriumSweepResult aggregates an EquilibriumSweep.
type EquilibriumSweepResult struct {
	Games int `json:"games"`
	// Multiple counts games with at least two pure equilibria (the games a
	// Section-5 manipulator can act on).
	Multiple int           `json:"multiple"`
	Count    stats.Summary `json:"equilibria_per_game"`
}

// Kind implements Spec.
func (s EquilibriumSweep) Kind() string { return "equilibrium_sweep" }

// Tasks implements Spec.
func (s EquilibriumSweep) Tasks() int { return s.Games }

// TaskCost implements Sizer: one enumeration per task, exponential in game
// size (see enumCost). Flat within a sweep — a size signal for cross-job
// policies, not a reordering (see DesignSweep.TaskCost).
func (s EquilibriumSweep) TaskCost(int) float64 { return enumCost(s.Gen) }

// Validate implements Validator.
func (s EquilibriumSweep) Validate() error {
	if s.Games <= 0 {
		return errors.New("games must be positive")
	}
	if s.Gen.Miners <= 0 || s.Gen.Coins <= 0 {
		return errors.New("need a generator spec")
	}
	return nil
}

// RunTask implements Spec.
func (s EquilibriumSweep) RunTask(ctx context.Context, _ int, r *rng.Rand) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := core.RandomGame(r, s.Gen)
	if err != nil {
		return nil, err
	}
	eqs, err := equilibria.Enumerate(g)
	if err != nil {
		return nil, err
	}
	return len(eqs), nil
}

// Aggregate implements Spec.
func (s EquilibriumSweep) Aggregate(results []any) (any, error) {
	out := EquilibriumSweepResult{Games: len(results)}
	var counts []float64
	for _, raw := range results {
		n := raw.(int)
		counts = append(counts, float64(n))
		if n >= 2 {
			out.Multiple++
		}
	}
	out.Count = stats.Summarize(counts)
	return out, nil
}

// Task-result codecs: every built-in sweep is distributable. Decode must
// revive the exact concrete type Aggregate asserts — learnTaskResult,
// designTaskResult, replay.Outcome, int — because remotely computed results
// flow into the same Aggregate call as local ones.

// EncodeTaskResult implements TaskCoder.
func (s LearnSweep) EncodeTaskResult(res any) (json.RawMessage, error) { return json.Marshal(res) }

// DecodeTaskResult implements TaskCoder.
func (s LearnSweep) DecodeTaskResult(raw json.RawMessage) (any, error) {
	return decodeTaskAs[learnTaskResult](raw)
}

// EncodeTaskResult implements TaskCoder.
func (s DesignSweep) EncodeTaskResult(res any) (json.RawMessage, error) { return json.Marshal(res) }

// DecodeTaskResult implements TaskCoder.
func (s DesignSweep) DecodeTaskResult(raw json.RawMessage) (any, error) {
	return decodeTaskAs[designTaskResult](raw)
}

// EncodeTaskResult implements TaskCoder.
func (s ReplaySweep) EncodeTaskResult(res any) (json.RawMessage, error) { return json.Marshal(res) }

// DecodeTaskResult implements TaskCoder.
func (s ReplaySweep) DecodeTaskResult(raw json.RawMessage) (any, error) {
	return decodeTaskAs[replay.Outcome](raw)
}

// EncodeTaskResult implements TaskCoder.
func (s EquilibriumSweep) EncodeTaskResult(res any) (json.RawMessage, error) {
	return json.Marshal(res)
}

// DecodeTaskResult implements TaskCoder.
func (s EquilibriumSweep) DecodeTaskResult(raw json.RawMessage) (any, error) {
	return decodeTaskAs[int](raw)
}
