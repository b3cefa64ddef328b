package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

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

// defaultSchedulers is the sweep of a LearnSweep that names none: every
// built-in scheduler, in learning.AllSchedulers order.
var defaultSchedulers = func() []string {
	var names []string
	for _, sched := range learning.AllSchedulers() {
		names = append(names, sched.Name())
	}
	return names
}()

// schedulerNames returns the swept scheduler names; callers must not
// modify the slice. It takes a pointer, as schedulerForTask does, so a
// task's calls copy no spec.
func (s *LearnSweep) schedulerNames() []string {
	if len(s.Schedulers) > 0 {
		return s.Schedulers
	}
	return defaultSchedulers
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
	if s.Game == nil {
		if s.Gen.Miners <= 0 || s.Gen.Coins <= 0 {
			return errors.New("need a game or a generator spec")
		}
		if err := checkGenSize(s.Gen); err != nil {
			return err
		}
	}
	for _, name := range s.schedulerNames() {
		if _, err := learning.SchedulerByName(name); err != nil {
			return err
		}
	}
	return nil
}

// checkGenSize rejects a generator spec, with positive Miners and Coins,
// whose games would exceed core.MaxGenCells miners × coins: one such game
// could exhaust the memory of the process running its task.
func checkGenSize(gen core.GenSpec) error {
	if gen.Miners > core.MaxGenCells/gen.Coins {
		return fmt.Errorf("generated games are limited to %d miners × coins, got %d × %d", core.MaxGenCells, gen.Miners, gen.Coins)
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

// schedulerForTask returns task i's scheduler, fresh: schedulers are
// stateful, so each run needs its own. A round-robin one is sc's, reset.
func (s *LearnSweep) schedulerForTask(i int, sc *learnScratch) (learning.Scheduler, error) {
	if name := s.schedulerNames()[i/s.Runs]; name != sc.rr.Name() {
		return learning.SchedulerByName(name)
	}
	sc.rr = learning.RoundRobin{}
	return &sc.rr, nil
}

// learnScratch is what a LearnSweep task draws into: its random game, its
// start configuration, which learning.RunInPlace then moves, its learning
// generator, and its scheduler when that is round-robin. Tasks take one
// from learnScratchPool for the length of the call, so a task allocates
// only what it returns.
type learnScratch struct {
	game  core.Game
	start core.Config
	gen   rng.Rand
	rr    learning.RoundRobin
}

var learnScratchPool = sync.Pool{New: func() any { return new(learnScratch) }}

// RunTask implements Spec.
func (s LearnSweep) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := learnScratchPool.Get().(*learnScratch)
	defer learnScratchPool.Put(sc)
	sched, err := s.schedulerForTask(i, sc)
	if err != nil {
		return nil, err
	}
	g := s.Game
	if g == nil {
		if err := sc.game.Redraw(r, s.Gen); err != nil {
			return nil, err
		}
		g = &sc.game
	}
	sc.start = core.AppendRandomConfig(sc.start[:0], r, g)
	r.SplitInto(&sc.gen)
	res, err := learning.RunInPlace(g, sc.start, sched, &sc.gen, learning.Options{MaxSteps: s.MaxSteps})
	if err != nil {
		return nil, err
	}
	return learnTaskResult{Steps: res.Steps, Converged: res.Converged && g.IsEquilibrium(res.Final)}, nil
}

// Aggregate implements Spec.
func (s LearnSweep) Aggregate(results []any) (any, error) {
	names := s.schedulerNames()
	out := LearnSweepResult{TotalRuns: len(results), Schedulers: make([]SchedulerSummary, 0, len(names))}
	steps := make([]float64, 0, s.Runs)
	for si, name := range names {
		sum := SchedulerSummary{Scheduler: name, Runs: s.Runs}
		steps = steps[:0]
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

// Validate implements Validator.
func (s DesignSweep) Validate() error {
	if s.Pairs <= 0 {
		return errors.New("pairs must be positive")
	}
	if s.Gen.Miners <= 0 || s.Gen.Coins <= 0 {
		return errors.New("need a generator spec")
	}
	return checkGenSize(s.Gen)
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

// Validate implements Validator.
func (s EquilibriumSweep) Validate() error {
	if s.Games <= 0 {
		return errors.New("games must be positive")
	}
	if s.Gen.Miners <= 0 || s.Gen.Coins <= 0 {
		return errors.New("need a generator spec")
	}
	return checkGenSize(s.Gen)
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
	// Count without materializing: equilibria.Enumerate would clone every
	// equilibrium only for its length.
	n := 0
	if err := g.VisitEquilibria(func(core.Config) bool { n++; return true }); err != nil {
		return nil, err
	}
	return n, nil
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

// EncodeTaskResult implements TaskCoder. A learnTaskResult is appended
// field by field, in the bytes json.Marshal writes for it, without the
// reflective encoder: learn_sweep jobs stream over a thousand of these tiny
// documents each, so the encoder's fixed cost is most of the work.
func (s LearnSweep) EncodeTaskResult(res any) (json.RawMessage, error) {
	tr, ok := res.(learnTaskResult)
	if !ok {
		return json.Marshal(res)
	}
	var buf [48]byte // `{"steps":` + 20 digits + `,"converged":false}`
	b := append(buf[:0], `{"steps":`...)
	b = strconv.AppendInt(b, int64(tr.Steps), 10)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, tr.Converged)
	return bytes.Clone(append(b, '}')), nil
}

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
