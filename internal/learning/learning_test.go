package learning

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/potential"
	"gameofcoins/internal/rng"
)

func testGame(t *testing.T) *core.Game {
	t.Helper()
	return core.MustNewGame(
		[]core.Miner{
			{Name: "p1", Power: 13},
			{Name: "p2", Power: 11},
			{Name: "p3", Power: 7},
			{Name: "p4", Power: 5},
			{Name: "p5", Power: 3},
			{Name: "p6", Power: 2},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{17, 19, 23},
	)
}

// TestSchedulerByName: every built-in is found under its Name, as a fresh
// instance of its own type, and an unknown name is an error.
func TestSchedulerByName(t *testing.T) {
	for _, want := range AllSchedulers() {
		got, err := SchedulerByName(want.Name())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(want) || got.Name() != want.Name() {
			t.Fatalf("SchedulerByName(%q) = %T named %q", want.Name(), got, got.Name())
		}
	}
	a, _ := SchedulerByName("round-robin")
	b, _ := SchedulerByName("round-robin")
	if a == b {
		t.Fatal("round-robin instances are shared")
	}
	if _, err := SchedulerByName("nope"); err == nil {
		t.Fatal("unknown scheduler name accepted")
	}
}

func TestRunConvergesAllSchedulers(t *testing.T) {
	g := testGame(t)
	for _, sched := range AllSchedulers() {
		t.Run(sched.Name(), func(t *testing.T) {
			r := rng.New(1)
			res, err := Run(g, core.UniformConfig(g.NumMiners(), 0), sched, r, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			if !g.IsEquilibrium(res.Final) {
				t.Fatalf("final config %v not an equilibrium", res.Final)
			}
			if res.Scheduler != sched.Name() {
				t.Fatalf("scheduler name %q", res.Scheduler)
			}
		})
	}
}

// TestTheorem1RandomGames is the headline convergence test: every scheduler
// converges on every random game from every random start.
func TestTheorem1RandomGames(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		g, err := core.RandomGame(r, core.GenSpec{Miners: 3 + r.Intn(8), Coins: 2 + r.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		s0 := core.RandomConfig(r, g)
		for _, sched := range AllSchedulers() {
			res, err := Run(g, s0, sched, r.Split(), Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sched.Name(), err)
			}
			if !g.IsEquilibrium(res.Final) {
				t.Fatalf("trial %d %s: non-equilibrium final", trial, sched.Name())
			}
		}
	}
}

// TestPotentialMonotoneDuringRun: the ordinal potential strictly increases
// along the realized improving path, for every scheduler.
func TestPotentialMonotoneDuringRun(t *testing.T) {
	g := testGame(t)
	for _, sched := range AllSchedulers() {
		prev := core.UniformConfig(g.NumMiners(), 1)
		bad := false
		_, err := Run(g, prev, sched, rng.New(3), Options{
			Observer: func(_ Move, s core.Config) {
				if !potential.Less(g, prev, s) {
					bad = true
				}
				prev = s.Clone()
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if bad {
			t.Fatalf("%s: potential not strictly increasing", sched.Name())
		}
	}
}

func TestRunDoesNotMutateInitialConfig(t *testing.T) {
	g := testGame(t)
	s0 := core.UniformConfig(g.NumMiners(), 0)
	orig := s0.Clone()
	if _, err := Run(g, s0, NewRoundRobin(), rng.New(1), Options{}); err != nil {
		t.Fatal(err)
	}
	if !s0.Equal(orig) {
		t.Fatal("Run mutated s0")
	}
}

// TestRunInPlaceMatchesRun: RunInPlace takes the same steps as Run and
// ends in its start, which becomes the Result's Final.
func TestRunInPlaceMatchesRun(t *testing.T) {
	g := testGame(t)
	s0 := core.UniformConfig(g.NumMiners(), 0)
	want, err := Run(g, s0, NewRandom(), rng.New(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := s0.Clone()
	got, err := RunInPlace(g, s, NewRandom(), rng.New(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != want.Steps || !got.Final.Equal(want.Final) || !s.Equal(want.Final) || &got.Final[0] != &s[0] {
		t.Fatalf("RunInPlace: %d steps to %v in %v, Run: %d steps to %v", got.Steps, got.Final, s, want.Steps, want.Final)
	}
}

func TestRunFromEquilibriumIsNoop(t *testing.T) {
	g := testGame(t)
	res, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewRoundRobin(), rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(g, res.Final, NewRandom(), rng.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Steps != 0 || !res2.Final.Equal(res.Final) {
		t.Fatalf("restart from equilibrium moved: %+v", res2)
	}
}

func TestRunRecordsMoves(t *testing.T) {
	g := testGame(t)
	res, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewRoundRobin(), rng.New(1), Options{RecordMoves: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != res.Steps {
		t.Fatalf("moves %d != steps %d", len(res.Moves), res.Steps)
	}
	for i, mv := range res.Moves {
		if mv.PayoffAfter <= mv.PayoffBefore {
			t.Fatalf("move %d not improving: %+v", i, mv)
		}
		if mv.From == mv.To {
			t.Fatalf("move %d is a self-move", i)
		}
	}
}

func TestRunStepLimit(t *testing.T) {
	g := testGame(t)
	_, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewMinGain(), rng.New(1), Options{MaxSteps: 1})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	g := testGame(t)
	if _, err := Run(g, core.Config{0}, NewRoundRobin(), rng.New(1), Options{}); err == nil {
		t.Fatal("short config accepted")
	}
}

// fixedScheduler proposes the same move at every step.
type fixedScheduler struct{ p, c int }

func (fixedScheduler) Name() string { return "fixed" }
func (f fixedScheduler) Next(*core.Game, core.Config, *rng.Rand) (core.MinerID, core.CoinID, bool) {
	return f.p, f.c, true
}

// TestRunDetectsBadScheduler: a proposal that is not a better response, or
// that names a miner or coin outside the game, ends the run with
// ErrBadMove.
func TestRunDetectsBadScheduler(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "a", Power: 2}, {Name: "b", Power: 1}},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}},
		[]float64{100, 1},
	)
	// At ⟨c0 c0⟩ a move by miner 0 to coin 1 is strictly worse.
	for _, bad := range []fixedScheduler{{0, 1}, {2, 1}, {-1, 1}, {0, 2}, {0, -1}} {
		_, err := Run(g, core.Config{0, 0}, bad, rng.New(1), Options{})
		if !errors.Is(err, ErrBadMove) {
			t.Errorf("miner %d to coin %d: err = %v, want ErrBadMove", bad.p, bad.c, err)
		}
	}
}

func TestInvariantAborts(t *testing.T) {
	g := testGame(t)
	sentinel := errors.New("sentinel")
	calls := 0
	_, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewRoundRobin(), rng.New(1), Options{
		Invariant: func(core.Config) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("invariant called %d times", calls)
	}
}

func TestObserverSeesEveryStep(t *testing.T) {
	g := testGame(t)
	seen := 0
	res, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewRandom(), rng.New(5), Options{
		Observer: func(Move, core.Config) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != res.Steps {
		t.Fatalf("observer saw %d of %d steps", seen, res.Steps)
	}
}

func TestSchedulersAgreeAtEquilibrium(t *testing.T) {
	g := testGame(t)
	res, err := Run(g, core.UniformConfig(g.NumMiners(), 2), NewMaxGain(), rng.New(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range AllSchedulers() {
		if _, _, ok := sched.Next(g, res.Final, rng.New(9)); ok {
			t.Fatalf("%s proposes a move at equilibrium", sched.Name())
		}
	}
}

func TestDeterministicSchedulersReproducible(t *testing.T) {
	g := testGame(t)
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewRoundRobin() },
		func() Scheduler { return NewMaxGain() },
		func() Scheduler { return NewMinGain() },
		func() Scheduler { return NewSmallestFirst() },
		func() Scheduler { return NewLargestFirst() },
	} {
		a, err := Run(g, core.UniformConfig(g.NumMiners(), 0), mk(), rng.New(1), Options{RecordMoves: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(g, core.UniformConfig(g.NumMiners(), 0), mk(), rng.New(1), Options{RecordMoves: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Steps != b.Steps || !a.Final.Equal(b.Final) {
			t.Fatalf("%s not reproducible", a.Scheduler)
		}
		for i := range a.Moves {
			if a.Moves[i] != b.Moves[i] {
				t.Fatalf("%s move %d differs", a.Scheduler, i)
			}
		}
	}
}

func TestRandomSchedulerSeedReproducible(t *testing.T) {
	g := testGame(t)
	a, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewRandom(), rng.New(77), Options{RecordMoves: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, core.UniformConfig(g.NumMiners(), 0), NewRandom(), rng.New(77), Options{RecordMoves: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps {
		t.Fatal("random scheduler not seed-reproducible")
	}
	for i := range a.Moves {
		if a.Moves[i] != b.Moves[i] {
			t.Fatalf("move %d differs", i)
		}
	}
}

// TestConvergenceWithEligibility: the asymmetric (§6) extension also
// converges empirically for all schedulers.
func TestConvergenceWithEligibility(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		nm, nc := 4+r.Intn(5), 2+r.Intn(3)
		miners := make([]core.Miner, nm)
		for i := range miners {
			miners[i] = core.Miner{Name: fmt.Sprintf("p%d", i), Power: 0.5 + 10*r.Float64()}
		}
		coins := make([]core.Coin, nc)
		rewards := make([]float64, nc)
		for c := range coins {
			coins[c] = core.Coin{Name: fmt.Sprintf("c%d", c)}
			rewards[c] = 1 + 20*r.Float64()
		}
		// Each miner may mine a random non-empty subset of coins.
		masks := make([]int, nm)
		for p := range masks {
			masks[p] = 1 + r.Intn(1<<nc-1)
		}
		g, err := core.NewGame(miners, coins, rewards,
			core.WithEligibility(func(p core.MinerID, c core.CoinID) bool {
				return masks[p]&(1<<c) != 0
			}))
		if err != nil {
			t.Fatal(err)
		}
		s0 := core.RandomConfig(r, g)
		for _, sched := range AllSchedulers() {
			res, err := Run(g, s0, sched, r.Split(), Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sched.Name(), err)
			}
			if !g.IsEquilibrium(res.Final) {
				t.Fatalf("trial %d %s: final not equilibrium", trial, sched.Name())
			}
		}
	}
}
