package gameofcoins_test

// Facade-level coverage for the concurrent experiment engine and the
// gocserve handler: everything here goes through the public gameofcoins
// package only, which is how users are expected to reach the subsystem.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"gameofcoins"
)

func TestFacadeEngineDeterministicSweep(t *testing.T) {
	g, err := gameofcoins.NewGame(
		[]gameofcoins.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}, {Name: "p4", Power: 2}},
		[]gameofcoins.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := gameofcoins.LearnSweep{Game: g, Schedulers: []string{"random"}, Runs: 16}
	res1, err := gameofcoins.RunJob(context.Background(), gameofcoins.NewEngine(1), spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	res8, err := gameofcoins.RunJob(context.Background(), gameofcoins.NewEngine(8), spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res8) {
		t.Fatalf("facade sweep not worker-count independent:\n%+v\n%+v", res1, res8)
	}
	sweep := res1.(gameofcoins.LearnSweepResult)
	if sweep.TotalRuns != 16 || sweep.Schedulers[0].Converged != 16 {
		t.Fatalf("sweep = %+v", sweep)
	}
}

func TestFacadeRandForkIsExported(t *testing.T) {
	r := gameofcoins.NewRand(5)
	a, b := r.Fork(3), r.Fork(3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork is not a pure function of (state, index)")
	}
}

// TestFacadeServerRoundTrip drives the service through the public facade
// alone: NewServer, NewClient, a typed submission, Wait, the typed result,
// and the handle release.
func TestFacadeServerRoundTrip(t *testing.T) {
	api := gameofcoins.NewServer(2)
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()
	c := gameofcoins.NewClient(ts.URL)
	ctx := context.Background()

	h, err := c.SubmitEquilibriumSweep(ctx, gameofcoins.EquilibriumSweep{
		Gen: gameofcoins.GenSpec{Miners: 4, Coins: 2}, Games: 6,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "" || h.Submitted.Clients != 1 {
		t.Fatalf("handle = %+v", h.Submitted)
	}
	st, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	var res gameofcoins.EquilibriumSweepResult
	if err := h.Result(ctx, &res); err != nil {
		t.Fatal(err)
	}
	if res.Games != 6 {
		t.Fatalf("result = %+v", res)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
}
