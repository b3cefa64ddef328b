// Package manip implements the manipulation primitive of "Game of Coins":
// whale transactions (fee injection that raises a coin's weight until
// collected), together with a cost ledger so experiments can compare the
// manipulator's bounded spend against the indefinite payoff gain of the
// equilibrium it buys (§1, §5).
package manip

import (
	"errors"
	"fmt"

	"gameofcoins/internal/sim"
)

// Event is one recorded manipulation action.
type Event struct {
	Epoch int
	Kind  string
	Coin  int
	Cost  float64
}

// Ledger accumulates manipulation spending.
type Ledger struct {
	events []Event
	total  float64
}

// Total returns the cumulative manipulation cost.
func (l *Ledger) Total() float64 { return l.total }

// Events returns a copy of the recorded actions.
func (l *Ledger) Events() []Event { return append([]Event(nil), l.events...) }

func (l *Ledger) record(e Event) {
	l.events = append(l.events, e)
	l.total += e.Cost
}

// WhaleTx injects a whale transaction of the given fee (in the coin's own
// units) into coin c of the simulator, charging the fiat cost
// fee·rate to the ledger. The fee inflates the coin's weight until the next
// block collects it — the paper's "whale transactions" channel [22].
func WhaleTx(s *sim.Simulator, l *Ledger, coin int, fee float64) error {
	coins := s.Coins()
	if coin < 0 || coin >= len(coins) {
		return fmt.Errorf("manip: invalid coin %d", coin)
	}
	if fee <= 0 {
		return errors.New("manip: non-positive whale fee")
	}
	if err := coins[coin].Chain.InjectFees(fee); err != nil {
		return err
	}
	l.record(Event{
		Epoch: s.Epoch(),
		Kind:  "whale-tx",
		Coin:  coin,
		Cost:  fee * coins[coin].Rate.Rate(),
	})
	return nil
}
