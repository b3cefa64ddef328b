package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gameofcoins/internal/numeric"
	"gameofcoins/internal/rng"
)

// oldCompareMiners is the comparator games were sorted with before miner
// keys: descending power, ties by name.
func oldCompareMiners(a, b Miner) int {
	switch {
	case a.Power > b.Power:
		return -1
	case a.Power < b.Power:
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// refRandomGame is RandomGame as it was before games could be redrawn in
// place: miners built in draw order (Zipf weights from rng.Zipf), checked,
// then stable-sorted with oldCompareMiners.
func refRandomGame(r *rng.Rand, spec GenSpec) (*Game, error) {
	if spec.Miners <= 0 || spec.Coins <= 0 {
		return nil, fmt.Errorf("core: invalid spec %+v", spec)
	}
	if spec.PowerLo == 0 {
		spec.PowerLo = 1
	}
	if spec.PowerHi == 0 {
		spec.PowerHi = 100
	}
	if spec.RewardLo == 0 {
		spec.RewardLo = 1
	}
	if spec.RewardHi == 0 {
		spec.RewardHi = 100
	}
	miners := make([]Miner, spec.Miners)
	if spec.PowerZipf > 0 {
		weights := rng.Zipf(spec.Miners, spec.PowerZipf, spec.PowerHi*float64(spec.Miners)/2)
		for i := range miners {
			jitter := 1 + 1e-7*r.Float64()
			miners[i] = Miner{Name: fmt.Sprintf("p%d", i), Power: weights[i] * jitter}
		}
	} else {
		for i := range miners {
			power := spec.PowerLo + (spec.PowerHi-spec.PowerLo)*r.Float64()
			miners[i] = Miner{Name: fmt.Sprintf("p%d", i), Power: power}
		}
	}
	coins := make([]Coin, spec.Coins)
	rewards := make([]float64, spec.Coins)
	for c := range coins {
		coins[c] = Coin{Name: fmt.Sprintf("c%d", c)}
		rewards[c] = spec.RewardLo + (spec.RewardHi-spec.RewardLo)*r.Float64()
	}
	for i, m := range miners {
		if !(m.Power > 0) || math.IsInf(m.Power, 0) {
			return nil, fmt.Errorf("%w: miner %d (%s) has power %v", ErrBadPower, i, m.Name, m.Power)
		}
	}
	for c, rw := range rewards {
		if !(rw > 0) || math.IsInf(rw, 0) {
			return nil, fmt.Errorf("%w: coin %d (%s) has reward %v", ErrBadReward, c, coins[c].Name, rw)
		}
	}
	slices.SortStableFunc(miners, oldCompareMiners)
	return &Game{miners: miners, coins: coins, rewards: rewards, eps: numeric.Eps}, nil
}

// gameDiff describes the first field in which a and b differ, comparing
// floats bit for bit; "" means identical.
func gameDiff(a, b *Game) string {
	if len(a.miners) != len(b.miners) || len(a.coins) != len(b.coins) || len(a.rewards) != len(b.rewards) {
		return fmt.Sprintf("shapes %d×%d/%d vs %d×%d/%d", len(a.miners), len(a.coins), len(a.rewards), len(b.miners), len(b.coins), len(b.rewards))
	}
	for p := range a.miners {
		if a.miners[p].Name != b.miners[p].Name || math.Float64bits(a.miners[p].Power) != math.Float64bits(b.miners[p].Power) {
			return fmt.Sprintf("miner %d: %+v vs %+v", p, a.miners[p], b.miners[p])
		}
	}
	for c := range a.coins {
		if a.coins[c] != b.coins[c] || math.Float64bits(a.rewards[c]) != math.Float64bits(b.rewards[c]) {
			return fmt.Sprintf("coin %d: %+v %v vs %+v %v", c, a.coins[c], a.rewards[c], b.coins[c], b.rewards[c])
		}
	}
	if math.Float64bits(a.eps) != math.Float64bits(b.eps) {
		return fmt.Sprintf("eps %v vs %v", a.eps, b.eps)
	}
	if (a.eligible == nil) != (b.eligible == nil) {
		return "eligibility differs"
	}
	return ""
}

// fuzzGenSpec maps fuzz inputs onto a GenSpec of 1–40 miners and 1–20
// coins (past the 16-coin table); lo == hi gives every miner one power, so
// names alone order them, and a negative lo draws invalid powers.
func fuzzGenSpec(shape uint16, lo, hi int8, zipf bool) GenSpec {
	spec := GenSpec{Miners: 1 + int(shape)%40, Coins: 1 + int(shape/40)%20, PowerLo: float64(lo), PowerHi: float64(hi)}
	if zipf {
		spec.PowerZipf = 1.1
	}
	return spec
}

// FuzzRedrawMatchesRandomGame: redrawing into a game last used for another
// spec, with a non-default epsilon and an eligibility restriction, yields
// the game a fresh RandomGame draws from an identical generator, field for
// field and bit for bit, or the same error; both generators end in the same
// state. Both also match refRandomGame, the pre-redraw algorithm.
func FuzzRedrawMatchesRandomGame(f *testing.F) {
	f.Add(uint64(1), uint16(7+40*1), int8(0), int8(0), false, uint16(3))   // 8×2 uniform
	f.Add(uint64(2), uint16(39+40*19), int8(0), int8(0), true, uint16(5))  // 40×20 Zipf
	f.Add(uint64(3), uint16(0), int8(0), int8(0), false, uint16(39+40*19)) // 1×1 after 40×20
	f.Add(uint64(4), uint16(11+40*2), int8(5), int8(5), false, uint16(7))  // 12×3, all powers equal
	f.Add(uint64(5), uint16(32+40*17), int8(9), int8(9), false, uint16(1)) // 33×18 equal: heap keys
	f.Add(uint64(6), uint16(9+40*15), int8(0), int8(50), true, uint16(2))  // 10×16 Zipf
	f.Add(uint64(7), uint16(5+40*4), int8(-3), int8(2), false, uint16(9))  // negative powers
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, lo, hi int8, zipf bool, prevShape uint16) {
		spec := fuzzGenSpec(shape, lo, hi, zipf)
		prev, err := RandomGame(rng.New(^seed), fuzzGenSpec(prevShape, 0, 0, !zipf))
		if err != nil {
			t.Fatal(err)
		}
		nc := prev.NumCoins()
		g, err := NewGame(prev.miners, prev.coins, prev.rewards, WithEpsilon(0.125),
			WithEligibility(func(p MinerID, c CoinID) bool { return c == p%nc }))
		if err != nil {
			t.Fatal(err)
		}

		rFresh, rRedraw, rRef := rng.New(seed), rng.New(seed), rng.New(seed)
		fresh, errFresh := RandomGame(rFresh, spec)
		errRedraw := g.Redraw(rRedraw, spec)
		ref, errRef := refRandomGame(rRef, spec)
		if *rFresh != *rRedraw || *rFresh != *rRef {
			t.Fatalf("%+v: generators end in different states", spec)
		}
		if fmt.Sprint(errFresh) != fmt.Sprint(errRedraw) || fmt.Sprint(errFresh) != fmt.Sprint(errRef) {
			t.Fatalf("%+v: errors differ: fresh %v, redraw %v, reference %v", spec, errFresh, errRedraw, errRef)
		}
		if errFresh != nil {
			return
		}
		if d := gameDiff(fresh, g); d != "" {
			t.Fatalf("%+v: redraw differs from RandomGame: %s", spec, d)
		}
		if d := gameDiff(fresh, ref); d != "" {
			t.Fatalf("%+v: RandomGame differs from the reference draw: %s", spec, d)
		}
	})
}

// TestSortMinerKeysMatchesSortStable: on arbitrary miners with tied powers
// and repeated names, sorting keys puts the input indices in the order
// slices.SortStableFunc puts the miners under the old comparator, on both
// the ranking and the stable sort.
func TestSortMinerKeysMatchesSortStable(t *testing.T) {
	names := []string{"a", "b", "p10", "p2", "p1"}
	type indexed struct {
		m Miner
		i int
	}
	f := func(seed uint64, size uint8) bool {
		r := rng.New(seed)
		miners := make([]Miner, int(size)%80)
		for i := range miners {
			miners[i] = Miner{Name: names[r.Intn(len(names))], Power: float64(1 + r.Intn(3))}
		}
		want := make([]indexed, len(miners))
		keys := make([]minerKey, len(miners))
		for i, m := range miners {
			want[i] = indexed{m, i}
			keys[i] = minerKey{power: m.Power, idx: i}
		}
		slices.SortStableFunc(want, func(a, b indexed) int { return oldCompareMiners(a.m, b.m) })
		sortMinerKeys(keys, func(i int) string { return miners[i].Name })
		for k := range want {
			if keys[k].idx != want[k].i || keys[k].power != want[k].m.Power {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refInsertMinerKeys is how sortMinerKeys sorted up to sortBufMiners keys
// before it ranked them: an insertion sort under the same comparator.
func refInsertMinerKeys(keys []minerKey, name func(int) string) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0; j-- {
			prev := keys[j-1]
			if k.power < prev.power || k.power == prev.power && strings.Compare(name(k.idx), name(prev.idx)) >= 0 {
				break
			}
			keys[j] = prev
		}
		keys[j] = k
	}
}

// FuzzSortMinerKeysMatchesInsertionSort: sortMinerKeys puts up to
// sortBufMiners keys in the order the insertion sort it replaced does. Each
// input byte is one miner: its low five bits pick one of 32 powers, which
// the fuzzer repeats to make ties, and its top three bits one of 8 names,
// repeated too.
func FuzzSortMinerKeysMatchesInsertionSort(f *testing.F) {
	for _, seed := range []string{"\x07\x03\x1f\x00\x11", "\x05\x25\x45\x05", "\x01\x02\x03\x04\x05\x06\x07\x08", "\x09"} {
		f.Add([]byte(seed))
	}
	names := []string{"p0", "p1", "p10", "p2", "a", "b", "", "p0"}
	f.Fuzz(func(t *testing.T, in []byte) {
		in = in[:min(len(in), sortBufMiners)]
		name := func(i int) string { return names[in[i]>>5] }
		got, want := make([]minerKey, len(in)), make([]minerKey, len(in))
		for i, b := range in {
			got[i] = minerKey{power: 1 + float64(b&31)/3, idx: i}
		}
		copy(want, got)
		sortMinerKeys(got, name)
		refInsertMinerKeys(want, name)
		if !slices.Equal(got, want) {
			t.Fatalf("sorted %v, the insertion sort %v", got, want)
		}
	})
}

// BenchmarkRedraw redraws one 8×2 game, persist-stream's learn_sweep
// shape, per op from the same generator.
func BenchmarkRedraw(b *testing.B) {
	r := rng.New(7)
	var g Game
	spec := GenSpec{Miners: 8, Coins: 2}
	b.ReportAllocs()
	for b.Loop() {
		if err := g.Redraw(r, spec); err != nil {
			b.Fatal(err)
		}
	}
}
