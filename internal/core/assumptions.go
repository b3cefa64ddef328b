package core

import (
	"fmt"
	"sort"

	"gameofcoins/internal/numeric"
)

// MaxExhaustiveConfigs bounds the state-space size |C|^|Π| that the
// exhaustive checkers and searches in this package will take on before
// refusing.
const MaxExhaustiveConfigs = 1 << 22

// ErrTooLarge is returned by exhaustive checkers when the game's state space
// exceeds MaxExhaustiveConfigs.
var ErrTooLarge = fmt.Errorf("core: state space too large for exhaustive check (limit %d)", MaxExhaustiveConfigs)

// EnumerateConfigs calls visit for every configuration of g in lexicographic
// order (miner 0 varies slowest). Enumeration stops early if visit returns
// false. It returns ErrTooLarge if |C|^|Π| exceeds MaxExhaustiveConfigs.
// Eligibility-restricted assignments are skipped.
func (g *Game) EnumerateConfigs(visit func(Config) bool) error {
	if err := g.checkExhaustive(); err != nil {
		return err
	}
	s := make(Config, len(g.miners))
	var rec func(p int) bool
	rec = func(p int) bool {
		if p == len(s) {
			return visit(s)
		}
		for c := range g.coins {
			if !g.Eligible(p, c) {
				continue
			}
			s[p] = c
			if !rec(p + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}

// checkExhaustive returns ErrTooLarge if |C|^|Π| exceeds
// MaxExhaustiveConfigs, the bound every exhaustive search in this package
// shares.
func (g *Game) checkExhaustive() error {
	total := 1
	for range g.miners {
		total *= len(g.coins)
		if total > MaxExhaustiveConfigs {
			return ErrTooLarge
		}
	}
	return nil
}

// NeverAloneViolation describes a configuration falsifying Assumption 1:
// coin Coin has at most one miner in Config, yet no miner has a better
// response step into it.
type NeverAloneViolation struct {
	Config Config
	Coin   CoinID
}

func (v *NeverAloneViolation) Error() string {
	return fmt.Sprintf("core: assumption 1 violated at %v: coin c%d has ≤1 miner and attracts nobody", v.Config, v.Coin)
}

// CheckNeverAlone exhaustively verifies the paper's Assumption 1 ("never
// alone"): in every configuration, if some coin has at most one miner, some
// miner has a better response step moving to that coin. It returns nil if
// the assumption holds, a *NeverAloneViolation if it fails, or ErrTooLarge
// for big games (use the |Π| ≥ 2|C| necessary condition plus sampling
// instead).
func (g *Game) CheckNeverAlone() error {
	var viol error
	if err := g.EnumerateConfigs(func(s Config) bool {
		if v := g.neverAloneViolationAt(s); v != nil {
			viol = v
			return false
		}
		return true
	}); err != nil {
		return err
	}
	return viol
}

func (g *Game) neverAloneViolationAt(s Config) *NeverAloneViolation {
	counts := make([]int, len(g.coins))
	for _, c := range s {
		counts[c]++
	}
	for c, cnt := range counts {
		if cnt > 1 {
			continue
		}
		attracted := false
		for p := range s {
			if s[p] != c && g.IsBetterResponse(s, p, c) {
				attracted = true
				break
			}
		}
		if !attracted {
			return &NeverAloneViolation{Config: s.Clone(), Coin: c}
		}
	}
	return nil
}

// GenericityViolation describes two (coin, miner-subset) pairs with equal
// reward-to-power ratios, falsifying Assumption 2.
type GenericityViolation struct {
	CoinA, CoinB     CoinID
	SubsetA, SubsetB []MinerID
	Ratio            float64
}

func (v *GenericityViolation) Error() string {
	return fmt.Sprintf("core: assumption 2 violated: F(c%d)/m(%v) == F(c%d)/m(%v) == %v",
		v.CoinA, v.SubsetA, v.CoinB, v.SubsetB, v.Ratio)
}

// CheckGeneric exhaustively verifies the paper's Assumption 2 ("generic
// game"): for any two distinct coins c ≠ c' and any two non-empty miner
// subsets P, P', F(c)/m(P) ≠ F(c')/m(P'). Equality is tested with the
// game's epsilon, so near-ties that the float engine cannot distinguish are
// reported as violations too. The check costs O(2ⁿ log 2ⁿ + pairs) and is
// limited to n ≤ 22 miners.
func (g *Game) CheckGeneric() error {
	n := len(g.miners)
	if n > 22 {
		return ErrTooLarge
	}
	type entry struct {
		ratio float64
		coin  CoinID
		mask  uint32
	}
	var entries []entry
	for mask := uint32(1); mask < 1<<n; mask++ {
		var sum float64
		for p := 0; p < n; p++ {
			if mask&(1<<p) != 0 {
				sum += g.miners[p].Power
			}
		}
		for c := range g.coins {
			entries = append(entries, entry{ratio: g.rewards[c] / sum, coin: c, mask: mask})
		}
	}
	// Sort by ratio and look for eps-close neighbours with distinct coins.
	sort.Slice(entries, func(i, j int) bool { return entries[i].ratio < entries[j].ratio })
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.coin == b.coin {
			continue
		}
		if numeric.Equal(a.ratio, b.ratio, g.eps) {
			return &GenericityViolation{
				CoinA:   a.coin,
				CoinB:   b.coin,
				SubsetA: maskToMiners(a.mask, n),
				SubsetB: maskToMiners(b.mask, n),
				Ratio:   a.ratio,
			}
		}
	}
	return nil
}

func maskToMiners(mask uint32, n int) []MinerID {
	var out []MinerID
	for p := 0; p < n; p++ {
		if mask&(1<<p) != 0 {
			out = append(out, p)
		}
	}
	return out
}
