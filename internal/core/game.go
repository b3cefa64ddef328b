// Package core implements the multi-cryptocurrency mining game of
// "Game of Coins" (Spiegelman, Keidar, Tennenholtz): a system ⟨Π, C⟩ of
// miners and coins together with a reward function F : C → R⁺.
//
// Each miner p has mining power m_p and mines exactly one coin; a coin c
// divides its reward F(c) among the miners mining it proportionally to their
// power. The revenue per unit of coin c in configuration s is
//
//	RPU_c(s) = F(c) / M_c(s)
//
// where M_c(s) is the total power on c, and the payoff of miner p is
// u_p(s) = m_p · RPU_{s.p}(s).
//
// The package provides the game state, payoff computations, better-response
// steps, stability/equilibrium predicates, and the paper's Assumption 1
// ("never alone") and Assumption 2 ("generic game") checkers. Learning
// dynamics live in internal/learning, equilibrium tooling in
// internal/equilibria, and the Section-5 reward design mechanism in
// internal/design.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"gameofcoins/internal/numeric"
)

// MinerID indexes a miner within a Game. Miners are kept sorted by strictly
// or weakly descending power, so MinerID 0 is always the most powerful miner
// (the paper's p₁).
type MinerID = int

// CoinID indexes a coin within a Game.
type CoinID = int

// Miner is a player with a name and a positive mining power.
type Miner struct {
	Name  string
	Power float64
}

// Coin is a resource miners compete over. Name is purely descriptive.
type Coin struct {
	Name string
}

// Sentinel errors returned by game construction and validation.
var (
	ErrNoMiners       = errors.New("core: game needs at least one miner")
	ErrNoCoins        = errors.New("core: game needs at least one coin")
	ErrBadPower       = errors.New("core: miner power must be positive and finite")
	ErrBadReward      = errors.New("core: coin reward must be positive and finite")
	ErrRewardArity    = errors.New("core: rewards length must equal number of coins")
	ErrBadConfig      = errors.New("core: configuration is invalid for this game")
	ErrNotEligible    = errors.New("core: miner is not eligible to mine this coin")
	ErrNoEligibleCoin = errors.New("core: miner has no eligible coin")
)

// Game is an immutable game instance G_{Π,C,F}. Construct one with NewGame;
// derive variants (e.g. modified rewards for reward design) with
// WithRewards. A Game is safe for concurrent read use.
type Game struct {
	miners  []Miner
	coins   []Coin
	rewards []float64
	eps     float64
	// eligible[p][c] reports whether miner p may mine coin c. nil means
	// "everyone may mine everything" (the paper's base model); non-nil
	// implements the §6 asymmetric extension.
	eligible [][]bool
}

// Option configures game construction.
type Option func(*Game) error

// WithEpsilon sets the relative tolerance used in payoff comparisons.
// The default is numeric.Eps. Setting eps = 0 makes comparisons exact in
// float64, which is appropriate for games whose powers and rewards are
// small integers.
func WithEpsilon(eps float64) Option {
	return func(g *Game) error {
		if eps < 0 || math.IsNaN(eps) {
			return fmt.Errorf("core: invalid epsilon %v", eps)
		}
		g.eps = eps
		return nil
	}
}

// WithEligibility restricts which miners may mine which coins (the paper's
// §6 "asymmetric case" follow-up). The predicate is evaluated once per
// (miner, coin) pair at construction time against the *sorted* miner order.
// Every miner must end up with at least one eligible coin.
func WithEligibility(allowed func(p MinerID, c CoinID) bool) Option {
	return func(g *Game) error {
		g.eligible = make([][]bool, len(g.miners))
		for p := range g.miners {
			g.eligible[p] = make([]bool, len(g.coins))
			any := false
			for c := range g.coins {
				g.eligible[p][c] = allowed(p, c)
				any = any || g.eligible[p][c]
			}
			if !any {
				return fmt.Errorf("%w: miner %d (%s)", ErrNoEligibleCoin, p, g.miners[p].Name)
			}
		}
		return nil
	}
}

// NewGame constructs a game. Miners are sorted by descending power
// (ties broken by name, then original index) so that the paper's
// m_{p₁} ≥ m_{p₂} ≥ … convention holds for all downstream algorithms.
// The input slices are copied.
func NewGame(miners []Miner, coins []Coin, rewards []float64, opts ...Option) (*Game, error) {
	var buf [sortBufMiners]minerKey
	keys := minerKeys(&buf, len(miners))
	for i, m := range miners {
		keys[i] = minerKey{power: m.Power, idx: i}
	}
	g := new(Game)
	if err := g.set(keys, func(i int) string { return miners[i].Name }, slices.Clone(coins), slices.Clone(rewards)); err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// set validates and installs a game's parts, resetting every field of g:
// the epsilon to its default and eligibility to unrestricted. keys lists
// the miners in input order (keys[i] holds miner i's power and index i) and
// name(i) is miner i's name; set sorts keys and writes the sorted miners
// into g's own miner storage. g keeps coins and rewards.
func (g *Game) set(keys []minerKey, name func(int) string, coins []Coin, rewards []float64) error {
	if len(keys) == 0 {
		return ErrNoMiners
	}
	if len(coins) == 0 {
		return ErrNoCoins
	}
	if len(rewards) != len(coins) {
		return fmt.Errorf("%w: got %d rewards for %d coins", ErrRewardArity, len(rewards), len(coins))
	}
	for _, k := range keys {
		if !(k.power > 0) || math.IsInf(k.power, 0) {
			return fmt.Errorf("%w: miner %d (%s) has power %v", ErrBadPower, k.idx, name(k.idx), k.power)
		}
	}
	for c, r := range rewards {
		if !(r > 0) || math.IsInf(r, 0) {
			return fmt.Errorf("%w: coin %d (%s) has reward %v", ErrBadReward, c, coins[c].Name, r)
		}
	}
	sortMinerKeys(keys, name)
	miners := slices.Grow(g.miners[:0], len(keys))[:len(keys)]
	for p, k := range keys {
		miners[p] = Miner{Name: name(k.idx), Power: k.power}
	}
	*g = Game{miners: miners, coins: coins, rewards: rewards, eps: numeric.Eps}
	return nil
}

// minerKey is what the miner sort moves: a miner's power and its index in
// input order, which stands for its name.
type minerKey struct {
	power float64
	idx   int
}

// sortBufMiners is how many miner keys game construction keeps on the
// stack, and the largest input sortMinerKeys ranks.
const sortBufMiners = 32

// minerKeys returns n keys, in buf when they fit.
func minerKeys(buf *[sortBufMiners]minerKey, n int) []minerKey {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]minerKey, n)
}

// sortMinerKeys stable-sorts keys, given in input order, by descending
// power with ties broken by strings.Compare of the names: the order
// slices.SortStableFunc gives the miners themselves under that comparator,
// so MinerIDs do not depend on the sort algorithm. Keys hold no pointers
// and the power comparison is inline, so only a tie calls name; up to
// sortBufMiners keys of distinct powers are ranked instead.
func sortMinerKeys(keys []minerKey, name func(int) string) {
	if len(keys) <= sortBufMiners && rankMinerKeys(keys) {
		return
	}
	slices.SortStableFunc(keys, func(a, b minerKey) int {
		switch {
		case a.power > b.power:
			return -1
		case a.power < b.power:
			return 1
		}
		return strings.Compare(name(a.idx), name(b.idx))
	})
}

// rankMinerKeys sorts up to sortBufMiners keys by descending power, each to
// the place that the count of greater powers gives it, and reports whether
// it did: keys two of which share a power, and so a place, are left as they
// are. The counts take no branch on the data, where a comparison sort's
// every comparison is a coin flip on random powers.
func rankMinerKeys(keys []minerKey) bool {
	var sorted [sortBufMiners]minerKey
	var taken uint64 // the places given
	for _, k := range keys {
		greater := 0
		for _, o := range keys {
			greater += b2i(o.power > k.power)
		}
		sorted[greater] = k
		taken |= 1 << greater
	}
	if taken != 1<<len(keys)-1 {
		return false
	}
	copy(keys, sorted[:len(keys)])
	return true
}

// b2i is 1 for true and 0 for false, which the compiler computes without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MustNewGame is NewGame that panics on error; for tests and examples whose
// inputs are literals.
func MustNewGame(miners []Miner, coins []Coin, rewards []float64, opts ...Option) *Game {
	g, err := NewGame(miners, coins, rewards, opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// WithRewards returns a new Game identical to g but with the given reward
// function. Miners, coins, eligibility, and epsilon are shared structurally
// (they are immutable), so this is cheap; reward design calls it every
// iteration.
func (g *Game) WithRewards(rewards []float64) (*Game, error) {
	if len(rewards) != len(g.coins) {
		return nil, fmt.Errorf("%w: got %d rewards for %d coins", ErrRewardArity, len(rewards), len(g.coins))
	}
	for c, r := range rewards {
		if !(r > 0) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: coin %d has reward %v", ErrBadReward, c, r)
		}
	}
	ng := *g
	ng.rewards = append([]float64(nil), rewards...)
	return &ng, nil
}

// NumMiners returns |Π|.
func (g *Game) NumMiners() int { return len(g.miners) }

// NumCoins returns |C|.
func (g *Game) NumCoins() int { return len(g.coins) }

// Miner returns the miner with the given ID (sorted-descending order).
func (g *Game) Miner(p MinerID) Miner { return g.miners[p] }

// Coin returns the coin with the given ID.
func (g *Game) Coin(c CoinID) Coin { return g.coins[c] }

// Power returns m_p.
func (g *Game) Power(p MinerID) float64 { return g.miners[p].Power }

// Reward returns F(c).
func (g *Game) Reward(c CoinID) float64 { return g.rewards[c] }

// Rewards returns a copy of the reward function as a slice indexed by CoinID.
func (g *Game) Rewards() []float64 { return append([]float64(nil), g.rewards...) }

// Epsilon returns the relative tolerance used in payoff comparisons.
func (g *Game) Epsilon() float64 { return g.eps }

// TotalPower returns Σ_p m_p.
func (g *Game) TotalPower() float64 {
	var t float64
	for _, m := range g.miners {
		t += m.Power
	}
	return t
}

// TotalReward returns Σ_c F(c).
func (g *Game) TotalReward() float64 {
	var t float64
	for _, r := range g.rewards {
		t += r
	}
	return t
}

// Eligible reports whether miner p may mine coin c.
func (g *Game) Eligible(p MinerID, c CoinID) bool {
	if g.eligible == nil {
		return true
	}
	return g.eligible[p][c]
}

// Restricted reports whether the game has any eligibility restriction
// (the §6 asymmetric extension).
func (g *Game) Restricted() bool { return g.eligible != nil }
