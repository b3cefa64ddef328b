// Package market models the economic side of a multi-coin mining market:
// fiat exchange-rate paths, per-coin weight computation (the reward
// function F the game consumes), and a whattomine-style profitability index.
//
// A coin's weight in the paper is "the reward it divides among its miners",
// which in practice depends on its transaction rate, transaction fees, and
// fiat exchange rate (§1). Weight here is fiat issuance per unit time:
//
//	F(c) = (block subsidy + average fees per block) · rate(c) / block time
//
// computed from the live chain state, so hashrate migration feeds back into
// weights through difficulty retargeting exactly as it does in reality.
package market

import (
	"errors"
	"fmt"
	"sort"

	"gameofcoins/internal/chain"
)

// Piecewise is a deterministic piecewise-linear rate path given as (time,
// rate) knots; it interpolates linearly and holds the last value. Replay
// scenarios use it for calibrated historical shapes.
type Piecewise struct {
	Times []float64
	Rates []float64
	now   float64
}

// NewPiecewise builds a piecewise path. Knots must be strictly increasing in
// time and non-empty.
func NewPiecewise(times, rates []float64) (*Piecewise, error) {
	if len(times) == 0 || len(times) != len(rates) {
		return nil, errors.New("market: piecewise needs equal non-empty knots")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("market: knot times not increasing at %d", i)
		}
	}
	return &Piecewise{Times: append([]float64(nil), times...), Rates: append([]float64(nil), rates...)}, nil
}

// Rate returns the exchange rate (fiat per coin) at the path's current time.
func (pw *Piecewise) Rate() float64 {
	t := pw.now
	if t <= pw.Times[0] {
		return pw.Rates[0]
	}
	last := len(pw.Times) - 1
	if t >= pw.Times[last] {
		return pw.Rates[last]
	}
	i := sort.SearchFloat64s(pw.Times, t)
	if pw.Times[i] == t {
		return pw.Rates[i]
	}
	lo, hi := i-1, i
	frac := (t - pw.Times[lo]) / (pw.Times[hi] - pw.Times[lo])
	return pw.Rates[lo]*(1-frac) + pw.Rates[hi]*frac
}

// Step advances the path's current time by dt seconds.
func (pw *Piecewise) Step(dt float64) { pw.now += dt }

// CoinMarket couples one chain with its exchange-rate path, a baseline fee
// flow, and the protocol constants weight computation needs.
type CoinMarket struct {
	Chain *chain.Chain
	Rate  *Piecewise
	// FeePerBlock is the steady-state fee volume collected by each block,
	// in the chain's own coin, on top of whale injections.
	FeePerBlock float64

	targetBlockSeconds float64
}

// NewCoinMarket builds a CoinMarket for the chain. targetBlockSeconds must
// match the chain's Params (the chain package does not expose it); the
// block subsidy is read live from the chain, so halvings flow into weights
// automatically.
func NewCoinMarket(ch *chain.Chain, rate *Piecewise, feePerBlock, targetBlockSeconds float64) (*CoinMarket, error) {
	if ch == nil || rate == nil {
		return nil, errors.New("market: nil chain or rate")
	}
	if feePerBlock < 0 || targetBlockSeconds <= 0 {
		return nil, errors.New("market: invalid coin market constants")
	}
	return &CoinMarket{
		Chain:              ch,
		Rate:               rate,
		FeePerBlock:        feePerBlock,
		targetBlockSeconds: targetBlockSeconds,
	}, nil
}

// Weight returns the coin's current weight F(c): expected fiat issuance per
// hour at the protocol's target block rate (difficulty retargeting drives
// realized production toward it). Whale fees pending on the chain raise the
// weight until they are collected — the §5 manipulation channel — and
// subsidy halvings lower it.
func (cm *CoinMarket) Weight() float64 {
	blocksPerHour := 3600 / cm.targetBlockSeconds
	coinPerBlock := cm.Chain.Subsidy() + cm.FeePerBlock + cm.Chain.PendingFees()
	return coinPerBlock * blocksPerHour * cm.Rate.Rate()
}
