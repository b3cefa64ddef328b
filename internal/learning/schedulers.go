package learning

import (
	"fmt"
	"math"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

// Every built-in scheduler computes the configuration's coin powers once per
// Next, into a stack array for games of up to stackCoins coins, and scans
// the (miner, coin) pairs against them with core's …In methods, which
// agree bit for bit with the methods that recompute the powers.
const stackCoins = 16

// RoundRobin cycles over miners in MinerID order, and whenever the miner
// under the cursor has a better response it plays that miner's *best*
// response. It is the classic fictitious-play-style update order.
type RoundRobin struct {
	cursor int
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (rr *RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (rr *RoundRobin) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	var buf [stackCoins]float64
	powers := g.AppendCoinPowers(buf[:0], s)
	n := g.NumMiners()
	for i := 0; i < n; i++ {
		p := (rr.cursor + i) % n
		if c, ok := g.BestResponseIn(s, p, powers); ok {
			rr.cursor = (p + 1) % n
			return p, c, true
		}
	}
	return 0, 0, false
}

// Random picks a uniformly random (miner, improving coin) pair each step —
// the natural model of uncoordinated selfish miners.
type Random struct{}

// NewRandom returns the uniform-random scheduler.
func NewRandom() Random { return Random{} }

// Name implements Scheduler.
func (Random) Name() string { return "random" }

// Next implements Scheduler. It counts the improving moves, draws one index
// k, and rescans to the k-th move in (MinerID, CoinID) order.
func (Random) Next(g *core.Game, s core.Config, r *rng.Rand) (core.MinerID, core.CoinID, bool) {
	var buf [stackCoins]float64
	var cbuf [stackCoins]core.CoinID
	powers := g.AppendCoinPowers(buf[:0], s)
	count := 0
	for p := 0; p < g.NumMiners(); p++ {
		count += len(g.AppendBetterResponsesIn(cbuf[:0], s, p, powers))
	}
	if count == 0 {
		return 0, 0, false
	}
	k := r.Intn(count)
	for p := 0; ; p++ {
		cs := g.AppendBetterResponsesIn(cbuf[:0], s, p, powers)
		if k < len(cs) {
			return p, cs[k], true
		}
		k -= len(cs)
	}
}

// MaxGain greedily plays the single improving move with the largest absolute
// payoff gain — the "most eager miner" model.
type MaxGain struct{}

// NewMaxGain returns the greedy max-gain scheduler.
func NewMaxGain() MaxGain { return MaxGain{} }

// Name implements Scheduler.
func (MaxGain) Name() string { return "max-gain" }

// Next implements Scheduler.
func (MaxGain) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	var buf [stackCoins]float64
	var cbuf [stackCoins]core.CoinID
	powers := g.AppendCoinPowers(buf[:0], s)
	bestGain := 0.0
	var bp core.MinerID
	var bc core.CoinID
	found := false
	for p := 0; p < g.NumMiners(); p++ {
		cur := g.PayoffIn(s, p, powers)
		for _, c := range g.AppendBetterResponsesIn(cbuf[:0], s, p, powers) {
			gain := g.PayoffAfterMoveIn(s, p, c, powers) - cur
			if !found || gain > bestGain {
				found, bestGain, bp, bc = true, gain, p, c
			}
		}
	}
	return bp, bc, found
}

// MinGain adversarially plays the improving move with the *smallest* payoff
// gain, maximizing the length of the improving path. Theorem 1 must hold
// even for this scheduler; experiment E8 uses it as the worst-case series.
type MinGain struct{}

// NewMinGain returns the adversarial min-gain scheduler.
func NewMinGain() MinGain { return MinGain{} }

// Name implements Scheduler.
func (MinGain) Name() string { return "min-gain" }

// Next implements Scheduler.
func (MinGain) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	var buf [stackCoins]float64
	var cbuf [stackCoins]core.CoinID
	powers := g.AppendCoinPowers(buf[:0], s)
	bestGain := math.Inf(1)
	var bp core.MinerID
	var bc core.CoinID
	found := false
	for p := 0; p < g.NumMiners(); p++ {
		cur := g.PayoffIn(s, p, powers)
		for _, c := range g.AppendBetterResponsesIn(cbuf[:0], s, p, powers) {
			gain := g.PayoffAfterMoveIn(s, p, c, powers) - cur
			if gain < bestGain {
				found, bestGain, bp, bc = true, gain, p, c
			}
		}
	}
	return bp, bc, found
}

// SmallestFirst always moves the least powerful unstable miner (to its best
// response). Small miners are the most volatile in practice — they chase
// RPU hardest — and the §5 reward design argument is built around moving
// small miners first.
type SmallestFirst struct{}

// NewSmallestFirst returns the smallest-miner-first scheduler.
func NewSmallestFirst() SmallestFirst { return SmallestFirst{} }

// Name implements Scheduler.
func (SmallestFirst) Name() string { return "smallest-first" }

// Next implements Scheduler. Miners are sorted by descending power, so the
// smallest is the highest MinerID.
func (SmallestFirst) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	var buf [stackCoins]float64
	powers := g.AppendCoinPowers(buf[:0], s)
	for p := g.NumMiners() - 1; p >= 0; p-- {
		if c, ok := g.BestResponseIn(s, p, powers); ok {
			return p, c, true
		}
	}
	return 0, 0, false
}

// LargestFirst always moves the most powerful unstable miner.
type LargestFirst struct{}

// NewLargestFirst returns the largest-miner-first scheduler.
func NewLargestFirst() LargestFirst { return LargestFirst{} }

// Name implements Scheduler.
func (LargestFirst) Name() string { return "largest-first" }

// Next implements Scheduler.
func (LargestFirst) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	var buf [stackCoins]float64
	powers := g.AppendCoinPowers(buf[:0], s)
	for p := 0; p < g.NumMiners(); p++ {
		if c, ok := g.BestResponseIn(s, p, powers); ok {
			return p, c, true
		}
	}
	return 0, 0, false
}

// AllSchedulers returns one fresh instance of every scheduler in the
// package, for exhaustive convergence testing (Theorem 1 quantifies over all
// of them).
func AllSchedulers() []Scheduler {
	return []Scheduler{
		NewRoundRobin(),
		NewRandom(),
		NewMaxGain(),
		NewMinGain(),
		NewSmallestFirst(),
		NewLargestFirst(),
	}
}

// SchedulerByName returns a fresh instance of the built-in scheduler with
// the given Name, constructing only that one. It is the one lookup shared by
// the experiment suite and the engine, so valid names cannot diverge
// between them.
func SchedulerByName(name string) (Scheduler, error) {
	switch name {
	case "round-robin":
		return NewRoundRobin(), nil
	case "random":
		return NewRandom(), nil
	case "max-gain":
		return NewMaxGain(), nil
	case "min-gain":
		return NewMinGain(), nil
	case "smallest-first":
		return NewSmallestFirst(), nil
	case "largest-first":
		return NewLargestFirst(), nil
	}
	return nil, fmt.Errorf("learning: unknown scheduler %q", name)
}
