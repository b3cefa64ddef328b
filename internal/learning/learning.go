// Package learning implements better-response dynamics over games from
// internal/core.
//
// Theorem 1 of "Game of Coins" quantifies over *arbitrary* better-response
// learning: whenever any miner can improve, some miner takes some improving
// step, in any order. The package therefore separates the dynamics engine
// (Run) from the choice of which improving move to take (Scheduler), and
// ships a family of schedulers including deliberately adversarial ones; the
// test suite asserts convergence for all of them, which is the executable
// form of the theorem.
package learning

import (
	"errors"
	"fmt"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

// Move is one improving step: miner Miner moved From → To, changing their
// payoff PayoffBefore → PayoffAfter.
type Move struct {
	Miner        core.MinerID
	From, To     core.CoinID
	PayoffBefore float64
	PayoffAfter  float64
}

// Scheduler selects the next better-response step. Implementations may keep
// state across calls within one Run (e.g. a round-robin cursor) but must be
// reset or freshly constructed per Run. Next returns ok=false iff no miner
// has a better response, i.e. s is a pure equilibrium.
type Scheduler interface {
	// Next picks an improving move in s, or reports ok=false at equilibrium.
	Next(g *core.Game, s core.Config, r *rng.Rand) (p core.MinerID, c core.CoinID, ok bool)
	// Name identifies the scheduler in traces and experiment tables.
	Name() string
}

// ErrStepLimit is returned by Run when MaxSteps is exhausted before reaching
// an equilibrium. Theorem 1 guarantees this never fires for a correct
// scheduler and a generous limit; its presence is a safety net against
// scheduler bugs (e.g. returning non-improving moves, which would cycle).
var ErrStepLimit = errors.New("learning: step limit reached before convergence")

// ErrBadMove is returned by Run when a scheduler proposes a move that is not
// a better response — a scheduler bug that would invalidate Theorem 1's
// premise.
var ErrBadMove = errors.New("learning: scheduler proposed a non-improving move")

// Options configure a Run.
type Options struct {
	// MaxSteps caps the number of better-response steps; 0 means the default
	// of 1000·|Π|·|C| + 1000, far above observed convergence times.
	MaxSteps int
	// RecordMoves retains the full move sequence in Result.Moves.
	RecordMoves bool
	// Observer, if non-nil, is invoked after every applied move with the
	// move and the resulting configuration. The configuration must not be
	// retained or mutated.
	Observer func(Move, core.Config)
	// Invariant, if non-nil, is checked after every applied move; a non-nil
	// error aborts the run. Reward design tests use this to enforce the
	// Ψ₁–Ψ₅ invariants of Lemma 1.
	Invariant func(core.Config) error
}

// Result reports the outcome of a Run.
type Result struct {
	Final     core.Config
	Steps     int
	Converged bool
	Moves     []Move // populated iff Options.RecordMoves
	Scheduler string
}

// Run executes better-response learning in g from s0 under the given
// scheduler until equilibrium. It never mutates s0. By Theorem 1 the
// dynamics converge for every scheduler that returns genuine better
// responses; Run verifies each proposed move, against coin powers it
// computes itself, and returns ErrBadMove for one that is not a better
// response or names a miner or coin outside g.
func Run(g *core.Game, s0 core.Config, sched Scheduler, r *rng.Rand, opts Options) (Result, error) {
	return RunInPlace(g, s0.Clone(), sched, r, opts)
}

// RunInPlace is Run working in s itself: every move is applied to s, and
// the Result's Final is s. A caller that owns s and redraws it for the
// next run saves Run's copy.
func RunInPlace(g *core.Game, s core.Config, sched Scheduler, r *rng.Rand, opts Options) (Result, error) {
	if err := g.ValidateConfig(s); err != nil {
		return Result{}, fmt.Errorf("learning: initial config: %w", err)
	}
	n, k := g.NumMiners(), g.NumCoins()
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1000*n*k + 1000
	}
	res := Result{Scheduler: sched.Name()}
	record := opts.RecordMoves || opts.Observer != nil
	var buf [stackCoins]float64
	powers := buf[:0]
	for step := 0; step < maxSteps; step++ {
		p, c, ok := sched.Next(g, s, r)
		if !ok {
			res.Final = s
			res.Converged = true
			return res, nil
		}
		powers = g.AppendCoinPowers(powers[:0], s)
		if p < 0 || p >= n || c < 0 || c >= k || !g.IsBetterResponseIn(s, p, c, powers) {
			return Result{}, fmt.Errorf("%w: miner %d to coin %d in %v", ErrBadMove, p, c, s)
		}
		var mv Move
		if record {
			mv = Move{Miner: p, From: s[p], To: c, PayoffBefore: g.PayoffIn(s, p, powers)}
		}
		s[p] = c
		res.Steps++
		if record {
			mv.PayoffAfter = g.Payoff(s, p)
			if opts.RecordMoves {
				res.Moves = append(res.Moves, mv)
			}
			if opts.Observer != nil {
				opts.Observer(mv, s)
			}
		}
		if opts.Invariant != nil {
			if err := opts.Invariant(s); err != nil {
				return Result{}, fmt.Errorf("learning: invariant after step %d: %w", res.Steps, err)
			}
		}
	}
	res.Final = s
	return res, fmt.Errorf("%w: %d steps under %s", ErrStepLimit, maxSteps, sched.Name())
}
