package equilibria

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

func crowded(t *testing.T) *core.Game {
	t.Helper()
	return core.MustNewGame(
		[]core.Miner{
			{Name: "p1", Power: 13},
			{Name: "p2", Power: 11},
			{Name: "p3", Power: 7},
			{Name: "p4", Power: 5},
			{Name: "p5", Power: 3},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{17, 19},
	)
}

// TestConstructAlwaysStable is Proposition 3 as a property: the greedy
// construction yields an equilibrium on random games.
func TestConstructAlwaysStable(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 300; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 1 + r.Intn(12), Coins: 1 + r.Intn(5)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Construct(g)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsEquilibrium(s) {
			t.Fatalf("trial %d: constructed %v is not stable", trial, s)
		}
	}
}

func TestConstructSingleMinerPicksMaxReward(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "solo", Power: 4}},
		[]core.Coin{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		[]float64{3, 9, 5},
	)
	s, err := Construct(g)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Fatalf("solo miner chose coin %d, want 1", s[0])
	}
}

func TestTwoDistinct(t *testing.T) {
	g := crowded(t)
	a, b, err := TwoDistinct(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("constructions coincide")
	}
	if !g.IsEquilibrium(a) || !g.IsEquilibrium(b) {
		t.Fatalf("constructions not stable: %v, %v", a, b)
	}
}

func TestTwoDistinctRandomGames(t *testing.T) {
	// Lemma 2 guarantees the construction under Assumptions 1–2, so on
	// random games satisfying both it must never fail.
	r := rng.New(13)
	checked := 0
	for trial := 0; trial < 200; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 8, Coins: 2})
		if err != nil {
			t.Fatal(err)
		}
		if g.CheckNeverAlone() != nil || g.CheckGeneric() != nil {
			continue
		}
		checked++
		if _, _, err := TwoDistinct(g); err != nil {
			t.Fatalf("trial %d (assumptions hold): %v", trial, err)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d games satisfied the assumptions; generator broken?", checked)
	}
}

func TestTwoDistinctRejectsTinyGames(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "solo", Power: 1}},
		[]core.Coin{{Name: "a"}, {Name: "b"}},
		[]float64{1, 2},
	)
	if _, _, err := TwoDistinct(g); err == nil {
		t.Fatal("single-miner game accepted")
	}
}

// TestTwoDistinctRespectsEligibility: with miner 0 barred from the
// top-reward coin, the Lemma 2 seeding is impossible, so TwoDistinct must
// fail with ErrNotStable rather than return a configuration that puts miner
// 0 on coin 1.
func TestTwoDistinctRespectsEligibility(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "a", Power: 5}, {Name: "b", Power: 3}, {Name: "c", Power: 2}, {Name: "d", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{4, 9, 1},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return p != 0 || c != 1 }),
	)
	a, b, err := TwoDistinct(g)
	if !errors.Is(err, ErrNotStable) {
		t.Fatalf("TwoDistinct = %v, %v, %v; want ErrNotStable", a, b, err)
	}
}

// TestTwoDistinctExtendsOverEligibleCoins: the seeds are legal, but the
// smallest miner's unrestricted greedy choice is the coin it is barred
// from, so the extension must pick among its eligible coins.
func TestTwoDistinctExtendsOverEligibleCoins(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "a", Power: 8}, {Name: "b", Power: 4}, {Name: "c", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{3, 20, 20},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return p != 2 || c != 2 }),
	)
	a, b, err := TwoDistinct(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Config{a, b} {
		if err := g.ValidateConfig(s); err != nil {
			t.Fatalf("TwoDistinct returned %v: %v", s, err)
		}
		if !g.IsEquilibrium(s) {
			t.Fatalf("TwoDistinct returned unstable %v", s)
		}
	}
}

func TestEnumerateFindsAllEquilibria(t *testing.T) {
	// Proposition 1's game: equilibria are exactly the two split configs.
	g := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 2}, {Name: "p2", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{1, 1},
	)
	eqs, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) != 2 {
		t.Fatalf("found %d equilibria: %v", len(eqs), eqs)
	}
	keys := map[string]bool{eqs[0].Key(): true, eqs[1].Key(): true}
	if !keys["0,1"] || !keys["1,0"] {
		t.Fatalf("wrong equilibria: %v", eqs)
	}
}

// TestEnumerateAppendCopies: the equilibria share one backing array, but
// appending to one must copy it, as appending to a clone does, and leave
// the next equilibrium alone.
func TestEnumerateAppendCopies(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 2}, {Name: "p2", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{1, 1},
	)
	eqs, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) != 2 {
		t.Fatalf("found %d equilibria: %v", len(eqs), eqs)
	}
	second := eqs[1].Clone()
	_ = append(eqs[0], 1, 1)
	if !eqs[1].Equal(second) {
		t.Fatalf("appending to the first equilibrium changed the second: %v, was %v", eqs[1], second)
	}
}

// TestEnumerateAllocatesAboutItsHits: enumerating a 10×3 game's hundreds
// of equilibria allocates at most 1.6 times the bytes of the hits
// themselves, the search's own storage and the result's headers included.
func TestEnumerateAllocatesAboutItsHits(t *testing.T) {
	g, err := core.RandomGame(rng.New(23), core.GenSpec{Miners: 10, Coins: 3})
	if err != nil {
		t.Fatal(err)
	}
	eqs, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	hits := uint64(len(eqs) * g.NumMiners() * int(unsafe.Sizeof(core.CoinID(0))))
	least := ^uint64(0) // the fewest bytes of three calls: other goroutines may allocate meanwhile
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Enumerate(g); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if len(eqs) < 100 || least > hits*8/5 {
		t.Fatalf("%d equilibria, %d bytes: Enumerate allocated %d bytes", len(eqs), hits, least)
	}
}

func TestEnumerateContainsConstruct(t *testing.T) {
	g := crowded(t)
	s, err := Construct(g)
	if err != nil {
		t.Fatal(err)
	}
	eqs, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eqs {
		if e.Equal(s) {
			return
		}
	}
	t.Fatalf("constructed equilibrium %v missing from enumeration %v", s, eqs)
}

// TestProposition2 verifies the headline claim on games satisfying both
// assumptions: every equilibrium admits a miner who strictly prefers another
// equilibrium.
func TestProposition2(t *testing.T) {
	g := crowded(t)
	if err := g.CheckNeverAlone(); err != nil {
		t.Skipf("instance violates assumption 1: %v", err)
	}
	if err := g.CheckGeneric(); err != nil {
		t.Skipf("instance violates assumption 2: %v", err)
	}
	eqs, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) < 2 {
		t.Fatalf("expected ≥2 equilibria, got %d", len(eqs))
	}
	for _, e := range eqs {
		imp, err := BetterEquilibriumFor(g, e)
		if err != nil {
			t.Fatalf("equilibrium %v has no improvement: %v", e, err)
		}
		if imp.Gain <= 0 {
			t.Fatalf("non-positive gain %v", imp.Gain)
		}
		// Verify the witness.
		if got := g.Payoff(imp.Better, imp.Miner) - g.Payoff(e, imp.Miner); got <= 0 {
			t.Fatalf("witness does not improve: %v", got)
		}
	}
}

func TestProposition2RandomGames(t *testing.T) {
	r := rng.New(17)
	checked := 0
	for trial := 0; trial < 60 && checked < 20; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 6, Coins: 2})
		if err != nil {
			t.Fatal(err)
		}
		if g.CheckNeverAlone() != nil || g.CheckGeneric() != nil {
			continue
		}
		checked++
		eqs, err := Enumerate(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range eqs {
			if _, err := BetterEquilibriumFor(g, e); err != nil {
				t.Fatalf("trial %d: equilibrium %v: %v", trial, e, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no random game satisfied both assumptions; generator broken?")
	}
}

func TestBetterEquilibriumForRejectsUnstable(t *testing.T) {
	g := crowded(t)
	unstable := core.UniformConfig(g.NumMiners(), 0)
	if g.IsEquilibrium(unstable) {
		t.Skip("uniform config happens to be stable")
	}
	if _, err := BetterEquilibriumFor(g, unstable); err == nil {
		t.Fatal("unstable reference accepted")
	}
}

// TestBetterEquilibriumForRejectsMalformed: a reference of the wrong
// length or with an out-of-range coin is an error, not a panic.
func TestBetterEquilibriumForRejectsMalformed(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "a", Power: 5}, {Name: "b", Power: 3}, {Name: "c", Power: 2}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{4, 3},
	)
	for _, s := range []core.Config{{0, 1}, {0, 1, 7}} {
		if _, err := BetterEquilibriumFor(g, s); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("BetterEquilibriumFor(%v) err = %v, want ErrBadConfig", s, err)
		}
	}
}

func TestBetterEquilibriumForUniqueEquilibrium(t *testing.T) {
	// One miner, one coin: a unique equilibrium, so ErrNoBetter.
	g := core.MustNewGame(
		[]core.Miner{{Name: "solo", Power: 1}},
		[]core.Coin{{Name: "only"}},
		[]float64{5},
	)
	if _, err := BetterEquilibriumFor(g, core.Config{0}); !errors.Is(err, ErrNoBetter) {
		t.Fatalf("err = %v, want ErrNoBetter", err)
	}
}

// TestObservation3AcrossEquilibria: all equilibria of an Assumption-1 game
// are globally optimal (sum of payoffs equals total reward), hence payoffs
// across equilibria form a zero-sum redistribution — the fact Claim 4's
// proof rests on.
func TestObservation3AcrossEquilibria(t *testing.T) {
	g := crowded(t)
	eqs, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalReward()
	for _, e := range eqs {
		got := g.SumPayoffs(e)
		if diff := got - total; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("equilibrium %v: Σu = %v, want %v", e, got, total)
		}
	}
}

func TestConstructEligibilityRestricted(t *testing.T) {
	// Restrict the largest miner to coin 1 only; construction must respect it.
	g := core.MustNewGame(
		[]core.Miner{{Name: "big", Power: 10}, {Name: "s1", Power: 2}, {Name: "s2", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{10, 10},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return p != 0 || c == 1 }),
	)
	s, err := Construct(g)
	if err != nil {
		// Restricted games may defeat the greedy induction; that is a
		// documented limitation, not a bug.
		if !errors.Is(err, ErrNotStable) {
			t.Fatal(err)
		}
		return
	}
	if s[0] != 1 {
		t.Fatalf("restricted miner placed on coin %d", s[0])
	}
}
