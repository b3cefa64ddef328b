// Package sim is the discrete-event market simulator tying together chains
// (internal/chain), exchange rates and weights (internal/market), and miner
// agents (internal/mining).
//
// Time advances in fixed epochs (e.g. one hour). Each epoch:
//
//  1. exchange-rate processes step;
//  2. coin weights F(c) are recomputed from subsidy, fees, and rates;
//  3. agents are visited in random order and may switch coins per their
//     policy (one pass — partial, not to-convergence adjustment, matching
//     real markets where the game state moves before learning settles);
//  4. every chain mines for the epoch under the hashrate now pointed at it,
//     retargeting difficulty as blocks arrive;
//  5. per-coin hashrate shares, rates, and weights are recorded.
//
// The recorded series regenerate Figure 1 of the paper (see
// internal/replay), and the simulator doubles as the workload generator for
// the manipulation experiments.
package sim

import (
	"errors"
	"fmt"

	"gameofcoins/internal/market"
	"gameofcoins/internal/mining"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/trace"
)

// Config assembles a simulation.
type Config struct {
	Coins  []*market.CoinMarket
	Agents []mining.Agent
	// Assignment is the initial coin of each agent; defaults to everyone on
	// coin 0 when nil.
	Assignment []int
	// EpochSeconds is the decision/recording interval (default 3600).
	EpochSeconds float64
	// Seed drives all randomness (rate paths, agent order, chains).
	Seed uint64
}

// Simulator holds live simulation state.
type Simulator struct {
	coins      []*market.CoinMarket
	agents     []mining.Agent
	assignment []int
	epochSecs  float64
	rand       *rng.Rand
	epoch      int

	// Recorded series, one per coin: hashrate share, weight, rate.
	ShareSeries  []*trace.Series
	WeightSeries []*trace.Series
	RateSeries   []*trace.Series
	// SwitchSeries counts agent switches per epoch.
	SwitchSeries *trace.Series
}

// New validates cfg and builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	if len(cfg.Coins) == 0 {
		return nil, errors.New("sim: no coins")
	}
	if err := mining.ValidateAgents(cfg.Agents); err != nil {
		return nil, err
	}
	assignment := cfg.Assignment
	if assignment == nil {
		assignment = make([]int, len(cfg.Agents))
	}
	if len(assignment) != len(cfg.Agents) {
		return nil, fmt.Errorf("sim: %d assignments for %d agents", len(assignment), len(cfg.Agents))
	}
	for i, c := range assignment {
		if c < 0 || c >= len(cfg.Coins) {
			return nil, fmt.Errorf("sim: agent %d assigned to invalid coin %d", i, c)
		}
	}
	epochSecs := cfg.EpochSeconds
	if epochSecs == 0 {
		epochSecs = 3600
	}
	if epochSecs <= 0 {
		return nil, errors.New("sim: non-positive epoch")
	}
	s := &Simulator{
		coins:        cfg.Coins,
		agents:       append([]mining.Agent(nil), cfg.Agents...),
		assignment:   append([]int(nil), assignment...),
		epochSecs:    epochSecs,
		rand:         rng.New(cfg.Seed),
		SwitchSeries: trace.NewSeries("switches"),
	}
	for c := range cfg.Coins {
		name := cfg.Coins[c].Chain.Name()
		s.ShareSeries = append(s.ShareSeries, trace.NewSeries(name+"/share"))
		s.WeightSeries = append(s.WeightSeries, trace.NewSeries(name+"/weight"))
		s.RateSeries = append(s.RateSeries, trace.NewSeries(name+"/rate"))
	}
	return s, nil
}

// Epoch returns the number of completed epochs.
func (s *Simulator) Epoch() int { return s.epoch }

// Coins returns the coin markets (live pointers; manipulation hooks use
// these to inject fees).
func (s *Simulator) Coins() []*market.CoinMarket { return s.coins }

// CoinPowers returns the total agent power on each coin.
func (s *Simulator) CoinPowers() []float64 {
	powers := make([]float64, len(s.coins))
	for i, a := range s.agents {
		powers[s.assignment[i]] += a.Power
	}
	return powers
}

// Weights returns the current F(c) of every coin.
func (s *Simulator) Weights() []float64 {
	w := make([]float64, len(s.coins))
	for c, cm := range s.coins {
		w[c] = cm.Weight()
	}
	return w
}

// TotalPower returns the fleet's aggregate hashrate.
func (s *Simulator) TotalPower() float64 {
	var t float64
	for _, a := range s.agents {
		t += a.Power
	}
	return t
}

// Run advances the simulation by the given number of epochs.
func (s *Simulator) Run(epochs int) {
	for e := 0; e < epochs; e++ {
		s.step()
	}
}

func (s *Simulator) step() {
	// 1. Rates move.
	for _, cm := range s.coins {
		cm.Rate.Step(s.epochSecs)
	}
	// 2. Fresh weights.
	weights := s.Weights()
	// 3. Agents decide in random order; CoinPowers updates as they move so
	//    later agents see earlier switches (sequential better response).
	powers := s.CoinPowers()
	switches := 0
	for _, i := range s.rand.Perm(len(s.agents)) {
		a := s.agents[i]
		cur := s.assignment[i]
		next := a.Policy.Decide(mining.Decision{
			Current:    cur,
			Weights:    weights,
			CoinPowers: powers,
			Power:      a.Power,
		}, s.rand)
		if next != cur && next >= 0 && next < len(s.coins) {
			powers[cur] -= a.Power
			powers[next] += a.Power
			s.assignment[i] = next
			switches++
		}
	}
	// 4. Chains mine under the new hashrate split.
	for c, cm := range s.coins {
		cm.Chain.Advance(s.rand, s.epochSecs, powers[c])
	}
	// 5. Record.
	t := float64(s.epoch)
	total := s.TotalPower()
	for c := range s.coins {
		s.ShareSeries[c].Add(t, powers[c]/total)
		s.WeightSeries[c].Add(t, weights[c])
		s.RateSeries[c].Add(t, s.coins[c].Rate.Rate())
	}
	s.SwitchSeries.Add(t, float64(switches))
	s.epoch++
}
