package potential

import (
	"math"
	"sort"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

func prop1Game(t *testing.T) *core.Game {
	t.Helper()
	return core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 2}, {Name: "p2", Power: 1}},
		[]core.Coin{{Name: "c1"}, {Name: "c2"}},
		[]float64{1, 1},
	)
}

func genericGame(t *testing.T) *core.Game {
	t.Helper()
	return core.MustNewGame(
		[]core.Miner{
			{Name: "p1", Power: 13},
			{Name: "p2", Power: 11},
			{Name: "p3", Power: 7},
			{Name: "p4", Power: 5},
			{Name: "p5", Power: 3},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{17, 19, 23},
	)
}

func TestListSortedAndComplete(t *testing.T) {
	g := genericGame(t)
	s := core.Config{0, 0, 1, 1, 2}
	list := List(g, s)
	if len(list) != g.NumCoins() {
		t.Fatalf("list has %d entries", len(list))
	}
	seen := map[core.CoinID]bool{}
	for i, e := range list {
		seen[e.Coin] = true
		if i > 0 {
			prev := list[i-1]
			if e.RPU < prev.RPU || (e.RPU == prev.RPU && e.Coin < prev.Coin) {
				t.Fatalf("list not sorted at %d: %+v", i, list)
			}
		}
	}
	if len(seen) != g.NumCoins() {
		t.Fatal("list missing coins")
	}
}

func TestListEmptyCoinSortsLast(t *testing.T) {
	g := genericGame(t)
	s := core.UniformConfig(5, 0)
	list := List(g, s)
	last := list[len(list)-1]
	if !math.IsInf(last.RPU, 1) {
		t.Fatalf("empty coin should sort last with +Inf, got %+v", list)
	}
}

func TestCompare(t *testing.T) {
	a := []ListEntry{{1, 0}, {2, 1}}
	b := []ListEntry{{1, 0}, {3, 1}}
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Fatal("Compare wrong")
	}
	// Tie on RPU broken by coin ID.
	c := []ListEntry{{1, 1}, {2, 1}}
	if Compare(a, c) != -1 {
		t.Fatal("coin tie-break wrong")
	}
}

func TestComparePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compare([]ListEntry{{1, 0}}, nil)
}

// TestTheorem1OrdinalIncrease is the main property: every better-response
// step strictly increases the ordinal potential (Less order), over many
// random games, configurations, and steps.
func TestTheorem1OrdinalIncrease(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 300; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 6, Coins: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := core.RandomConfig(r, g)
		for p := 0; p < g.NumMiners(); p++ {
			for _, c := range g.BetterResponses(s, p) {
				sp := g.Apply(s, p, c)
				if !Less(g, s, sp) {
					t.Fatalf("ordinal potential did not increase:\n s=%v list=%v\n s'=%v list=%v",
						s, List(g, s), sp, List(g, sp))
				}
				if Less(g, sp, s) {
					t.Fatal("Less not antisymmetric")
				}
			}
		}
	}
}

// Ranks materializes the paper's H(s) = rank(list(s)) for every
// configuration of a small game: the returned map sends Config.Key() to the
// rank (1-based) of its list in the ordered set L of all lists. Distinct
// configurations with identical lists share a rank, exactly as in the paper.
// It returns core.ErrTooLarge for games whose state space exceeds the
// enumeration limit.
func Ranks(g *core.Game) (map[string]int, error) {
	type item struct {
		key  string
		list []ListEntry
	}
	var items []item
	if err := g.EnumerateConfigs(func(s core.Config) bool {
		items = append(items, item{key: s.Key(), list: List(g, s)})
		return true
	}); err != nil {
		return nil, err
	}
	sort.Slice(items, func(i, j int) bool { return Compare(items[i].list, items[j].list) < 0 })
	ranks := make(map[string]int, len(items))
	rank := 0
	for i, it := range items {
		if i == 0 || Compare(items[i-1].list, it.list) != 0 {
			rank++
		}
		ranks[it.key] = rank
	}
	return ranks, nil
}

// TestRanksAgreeWithLess: for a small game, the materialized rank ordering
// must agree with the lexicographic comparator.
func TestRanksAgreeWithLess(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 5}, {Name: "p2", Power: 3}, {Name: "p3", Power: 2}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{7, 11},
	)
	ranks, err := Ranks(g)
	if err != nil {
		t.Fatal(err)
	}
	var configs []core.Config
	if err := g.EnumerateConfigs(func(s core.Config) bool {
		configs = append(configs, s.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, a := range configs {
		for _, b := range configs {
			cmp := Compare(List(g, a), List(g, b))
			ra, rb := ranks[a.Key()], ranks[b.Key()]
			switch {
			case cmp < 0 && !(ra < rb):
				t.Fatalf("rank order disagrees: %v vs %v", a, b)
			case cmp == 0 && ra != rb:
				t.Fatalf("equal lists, different ranks: %v vs %v", a, b)
			case cmp > 0 && !(ra > rb):
				t.Fatalf("rank order disagrees: %v vs %v", a, b)
			}
		}
	}
}

func TestRanksStrictIncreaseAlongBetterResponse(t *testing.T) {
	g := prop1Game(t)
	ranks, err := Ranks(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.EnumerateConfigs(func(s core.Config) bool {
		for p := 0; p < g.NumMiners(); p++ {
			for _, c := range g.BetterResponses(s, p) {
				sp := g.Apply(s, p, c)
				if !(ranks[sp.Key()] > ranks[s.Key()]) {
					t.Fatalf("H did not increase: %v (%d) -> %v (%d)",
						s, ranks[s.Key()], sp, ranks[sp.Key()])
				}
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendixBPotentialDecreases: in symmetric games the closed-form
// potential Σ 1/M_c strictly decreases along better-response steps
// (Proposition 4).
func TestAppendixBPotentialDecreases(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		nm := 3 + r.Intn(5)
		nc := 2 + r.Intn(3)
		miners := make([]core.Miner, nm)
		for i := range miners {
			miners[i] = core.Miner{Name: "p", Power: 0.5 + 10*r.Float64()}
		}
		coins := make([]core.Coin, nc)
		rewards := make([]float64, nc)
		for c := range coins {
			coins[c] = core.Coin{Name: "c"}
			rewards[c] = 3 // symmetric
		}
		g, err := core.NewGame(miners, coins, rewards)
		if err != nil {
			t.Fatal(err)
		}
		s := core.RandomConfig(r, g)
		for p := 0; p < nm; p++ {
			for _, c := range g.BetterResponses(s, p) {
				sp := g.Apply(s, p, c)
				if !SymmetricLess(g, s, sp) {
					sum, empty := SymmetricPotential(g, s)
					sumP, emptyP := SymmetricPotential(g, sp)
					t.Fatalf("symmetric potential did not decrease: (%v,%d) -> (%v,%d)",
						sum, empty, sumP, emptyP)
				}
			}
		}
	}
}

// TestProposition1Cycle reproduces the paper's exact counterexample: the
// 4-cycle s¹→s²→s³→s⁴→s¹ has payoff-change sum 2/3 ≠ 0.
func TestProposition1Cycle(t *testing.T) {
	g := prop1Game(t)
	w := CycleWitness{
		Base:  core.Config{0, 0}, // s¹ = ⟨c1, c1⟩
		P:     0,                 // p1 moves to c2 → s²... (see below)
		Q:     1,
		CoinP: 1,
		CoinQ: 1,
	}
	// The paper's cycle moves p2 first (s²=⟨c1,c2⟩); ours moves p1 first,
	// which is the same cycle traversed from a different corner; |sum| must
	// still be 2/3.
	sum := CycleSum(g, w)
	if math.Abs(math.Abs(sum)-2.0/3.0) > 1e-12 {
		t.Fatalf("cycle sum = %v, want ±2/3", sum)
	}
}

func TestFindExactPotentialViolation(t *testing.T) {
	g := prop1Game(t)
	w := FindExactPotentialViolation(g, core.Config{0, 0}, 1e-9)
	if w == nil {
		t.Fatal("no violation found for Proposition 1 game")
	}
	if math.Abs(w.Sum) < 1e-9 {
		t.Fatalf("witness sum too small: %v", w.Sum)
	}
	// Recomputing the sum from the witness must agree.
	if got := CycleSum(g, *w); math.Abs(got-w.Sum) > 1e-12 {
		t.Fatalf("witness sum %v does not recompute: %v", w.Sum, got)
	}
}

func TestFindExactPotentialViolationSingleMiner(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "solo", Power: 1}},
		[]core.Coin{{Name: "a"}, {Name: "b"}},
		[]float64{1, 2},
	)
	// With one miner there are no two-player cycles; search must return nil.
	if w := FindExactPotentialViolation(g, core.Config{0}, 1e-9); w != nil {
		t.Fatalf("unexpected witness %+v", w)
	}
}

// TestNoExactPotentialGenerically: random multi-miner games essentially
// always admit a violating cycle, confirming the game class is not an exact
// potential game.
func TestNoExactPotentialGenerically(t *testing.T) {
	r := rng.New(5)
	found := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 4, Coins: 3})
		if err != nil {
			t.Fatal(err)
		}
		if FindExactPotentialViolation(g, core.RandomConfig(r, g), 1e-9) != nil {
			found++
		}
	}
	if found < trials*9/10 {
		t.Fatalf("violations found in only %d/%d games", found, trials)
	}
}
