// Package chain simulates a single proof-of-work blockchain: Poisson block
// races driven by the aggregate hashrate pointed at the chain, a block
// subsidy, per-block fees, and periodic difficulty retargeting.
//
// This is the substrate the paper's market story runs on. Only the
// quantities the mining game observes matter — block production rate, reward
// per block, and how difficulty reacts when hashrate migrates — so the model
// is deliberately the textbook one: exponential inter-block times with rate
// hashrate/difficulty, and a BTC-style window retarget clamped to a maximum
// adjustment factor.
package chain

import (
	"errors"
	"fmt"

	"gameofcoins/internal/rng"
)

// Params configure a chain.
type Params struct {
	Name string
	// TargetBlockSeconds is the protocol's desired inter-block time.
	TargetBlockSeconds float64
	// RetargetWindow is the number of blocks between difficulty adjustments
	// (2016 for Bitcoin). 1 gives per-block retargeting.
	RetargetWindow int
	// MaxRetargetFactor clamps each adjustment (Bitcoin uses 4).
	MaxRetargetFactor float64
	// BlockSubsidy is the protocol reward per block, in the chain's own coin.
	BlockSubsidy float64
	// HalvingInterval, when positive, halves the subsidy every that many
	// blocks (Bitcoin uses 210000). Zero disables halving.
	HalvingInterval int
	// InitialDifficulty is the expected number of unit-hashes per block at
	// genesis. A chain with difficulty D and aggregate hashrate H produces
	// blocks at rate H/D per second.
	InitialDifficulty float64
}

func (p Params) validate() error {
	switch {
	case p.TargetBlockSeconds <= 0:
		return fmt.Errorf("chain %q: non-positive target block time", p.Name)
	case p.RetargetWindow <= 0:
		return fmt.Errorf("chain %q: non-positive retarget window", p.Name)
	case p.MaxRetargetFactor < 1:
		return fmt.Errorf("chain %q: retarget factor must be ≥ 1", p.Name)
	case p.BlockSubsidy < 0:
		return fmt.Errorf("chain %q: negative subsidy", p.Name)
	case p.HalvingInterval < 0:
		return fmt.Errorf("chain %q: negative halving interval", p.Name)
	case p.InitialDifficulty <= 0:
		return fmt.Errorf("chain %q: non-positive difficulty", p.Name)
	}
	return nil
}

// Block is one mined block.
type Block struct {
	Height  int
	Time    float64 // absolute simulation time, seconds
	Subsidy float64
	Fees    float64
}

// Chain is a single simulated PoW chain. Not safe for concurrent use.
type Chain struct {
	params      Params
	difficulty  float64
	height      int
	windowStart float64 // time of the block that opened the retarget window
	now         float64
	pendingFees float64 // fees accumulated for the next block (whale txs)
}

// New creates a chain at height 0, time 0.
func New(p Params) (*Chain, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Chain{params: p, difficulty: p.InitialDifficulty}, nil
}

// Name returns the chain's name.
func (c *Chain) Name() string { return c.params.Name }

// Subsidy returns the protocol reward the *next* block will carry, after
// any halvings that have occurred.
func (c *Chain) Subsidy() float64 {
	if c.params.HalvingInterval <= 0 {
		return c.params.BlockSubsidy
	}
	s := c.params.BlockSubsidy
	for h := c.height / c.params.HalvingInterval; h > 0; h-- {
		s /= 2
	}
	return s
}

// InjectFees queues extra fees (a whale transaction) to be collected by the
// next mined block.
func (c *Chain) InjectFees(fees float64) error {
	if fees < 0 {
		return errors.New("chain: negative fee injection")
	}
	c.pendingFees += fees
	return nil
}

// PendingFees returns fees queued for the next block.
func (c *Chain) PendingFees() float64 { return c.pendingFees }

// Advance simulates the chain for dt seconds under the given aggregate
// hashrate, returning the blocks mined. Inter-block times are exponential;
// difficulty retargets every RetargetWindow blocks using the realized window
// duration, clamped by MaxRetargetFactor.
func (c *Chain) Advance(r *rng.Rand, dt, hashrate float64) []Block {
	if dt < 0 {
		panic("chain: negative time step")
	}
	end := c.now + dt
	var blocks []Block
	if hashrate <= 0 {
		c.now = end
		return nil
	}
	for {
		wait := r.Exp(hashrate / c.difficulty)
		if c.now+wait > end {
			c.now = end
			return blocks
		}
		c.now += wait
		b := Block{
			Height:  c.height,
			Time:    c.now,
			Subsidy: c.Subsidy(),
			Fees:    c.pendingFees,
		}
		c.pendingFees = 0
		c.height++
		blocks = append(blocks, b)
		if c.height%c.params.RetargetWindow == 0 {
			c.retarget()
		}
	}
}

func (c *Chain) retarget() {
	actual := c.now - c.windowStart
	c.windowStart = c.now
	target := c.params.TargetBlockSeconds * float64(c.params.RetargetWindow)
	if actual <= 0 {
		actual = target / c.params.MaxRetargetFactor
	}
	factor := target / actual
	if factor > c.params.MaxRetargetFactor {
		factor = c.params.MaxRetargetFactor
	}
	if factor < 1/c.params.MaxRetargetFactor {
		factor = 1 / c.params.MaxRetargetFactor
	}
	c.difficulty *= factor
}
