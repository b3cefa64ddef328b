// Package mining models miner agents in a live market: each agent has
// hashrate, an hourly operating cost, and a switching policy that decides —
// from the current coin weights and hashrate distribution — whether to move
// to another coin.
//
// Policies are deliberately boundedly rational: the paper only assumes
// better-response behaviour (move somewhere strictly better, eventually),
// and real miners add hysteresis (switching has operational cost) and
// laziness (they do not re-evaluate every second). The simulator in
// internal/sim drives agents once per epoch in random order.
package mining

import (
	"errors"
	"fmt"

	"gameofcoins/internal/rng"
)

// Agent is one miner in the market simulation.
type Agent struct {
	Name string
	// Power is the agent's hashrate in arbitrary units (shared with the
	// chains' difficulty unit).
	Power float64
	// CostPerHour is the fiat operating cost; it shifts profitability but
	// cancels out of *comparisons* between coins, so it matters only for
	// participation decisions (not modeled: agents never power off).
	CostPerHour float64
	// Policy decides switches.
	Policy Policy
}

// Decision is the input a policy sees: current weights (fiat/hour per coin)
// and the total power currently mining each coin, including the agent.
type Decision struct {
	Current    int       // agent's current coin
	Weights    []float64 // F(c), fiat per hour
	CoinPowers []float64 // M_c including the agent's own power at Current
	Power      float64   // agent's own power
}

// revenueStay is the agent's fiat/hour if it stays put.
func (d Decision) revenueStay() float64 {
	return d.Weights[d.Current] * d.Power / d.CoinPowers[d.Current]
}

// revenueMove is the agent's fiat/hour after moving to coin c.
func (d Decision) revenueMove(c int) float64 {
	return d.Weights[c] * d.Power / (d.CoinPowers[c] + d.Power)
}

// Policy selects the agent's next coin. Returning Current means "stay".
type Policy interface {
	Decide(d Decision, r *rng.Rand) int
	Name() string
}

// BetterResponse switches to the best coin whenever the relative gain
// exceeds Hysteresis (e.g. 0.01 = move only for >1% improvement); 0 gives
// the paper's pure better-response miner.
type BetterResponse struct {
	Hysteresis float64
}

// Name implements Policy.
func (p BetterResponse) Name() string { return fmt.Sprintf("better-response(h=%g)", p.Hysteresis) }

// Decide implements Policy.
func (p BetterResponse) Decide(d Decision, _ *rng.Rand) int {
	stay := d.revenueStay()
	best, bestRev := d.Current, stay
	for c := range d.Weights {
		if c == d.Current {
			continue
		}
		if rev := d.revenueMove(c); rev > bestRev {
			best, bestRev = c, rev
		}
	}
	if best != d.Current && bestRev > stay*(1+p.Hysteresis) {
		return best
	}
	return d.Current
}

// Sticky wraps another policy but only re-evaluates with probability
// Activity each epoch — the lazy miner who checks whattomine occasionally.
type Sticky struct {
	Inner    Policy
	Activity float64 // probability of re-evaluating per epoch, in (0, 1]
}

// Name implements Policy.
func (p Sticky) Name() string { return fmt.Sprintf("sticky(%.2f, %s)", p.Activity, p.Inner.Name()) }

// Decide implements Policy.
func (p Sticky) Decide(d Decision, r *rng.Rand) int {
	if r.Float64() >= p.Activity {
		return d.Current
	}
	return p.Inner.Decide(d, r)
}

// ValidateAgents checks a fleet for use in the simulator.
func ValidateAgents(agents []Agent) error {
	if len(agents) == 0 {
		return errors.New("mining: no agents")
	}
	for i, a := range agents {
		if !(a.Power > 0) {
			return fmt.Errorf("mining: agent %d (%s) has non-positive power", i, a.Name)
		}
		if a.Policy == nil {
			return fmt.Errorf("mining: agent %d (%s) has no policy", i, a.Name)
		}
		if a.CostPerHour < 0 {
			return fmt.Errorf("mining: agent %d (%s) has negative cost", i, a.Name)
		}
	}
	return nil
}
