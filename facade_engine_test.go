package gameofcoins_test

// Facade-level coverage for the concurrent experiment engine and the
// gocserve handler: everything here goes through the public gameofcoins
// package only, which is how users are expected to reach the subsystem.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

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

func TestFacadeServerRoundTrip(t *testing.T) {
	api := gameofcoins.NewServer(2)
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	body := strings.NewReader(`{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":4,"Coins":2},"games":6}}`)
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var jh gameofcoins.JobHandle
	if err := json.NewDecoder(resp.Body).Decode(&jh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || jh.Handle == "" || jh.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, jh)
	}
	var st gameofcoins.EngineJobStatus = jh.Status
	for !st.State.Terminal() {
		r2, err := http.Get(ts.URL + "/v2/jobs/" + jh.Handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r2.Body).Decode(&jh); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		st = jh.Status
	}
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	r3, err := http.Get(ts.URL + "/v2/jobs/" + jh.Handle + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	var out struct {
		Result gameofcoins.EquilibriumSweepResult `json:"result"`
	}
	if err := json.NewDecoder(r3.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Games != 6 {
		t.Fatalf("result = %+v", out.Result)
	}
}

// TestFacadeV2Surface drives the v2 redesign end to end through the public
// facade alone: RegisterSpec visibility via SpecKinds, NewClient + envelope
// submission against NewServer, SSE Watch, typed result, handle release.
func TestFacadeV2Surface(t *testing.T) {
	kinds := gameofcoins.SpecKinds()
	for _, want := range []string{"learn_sweep", "design_sweep", "replay_sweep", "equilibrium_sweep"} {
		found := false
		for _, k := range kinds {
			found = found || k == want
		}
		if !found {
			t.Fatalf("built-in kind %s missing from SpecKinds %v", want, kinds)
		}
	}

	// The versioned catalog is visible through the facade too: every built-in
	// registers at version 1 with a schema, and the fingerprint is stable.
	catalog := gameofcoins.SpecCatalog()
	seen := map[string]gameofcoins.SpecCatalogEntry{}
	for _, e := range catalog {
		seen[e.Wire] = e
	}
	for _, want := range kinds {
		e, ok := seen[want]
		if !ok || e.Version != 1 || !e.Latest {
			t.Fatalf("catalog entry for %s = %+v", want, e)
		}
	}
	if ls := seen["learn_sweep"]; ls.Schema == nil || ls.Schema.Properties["runs"] == nil {
		t.Fatalf("learn_sweep schema missing from facade catalog: %+v", seen["learn_sweep"])
	}
	if fp := gameofcoins.CatalogFingerprint(); fp == "" || fp != gameofcoins.CatalogFingerprint() {
		t.Fatal("catalog fingerprint unstable")
	}

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
	var handle gameofcoins.JobHandle = h.Submitted
	if handle.Handle == "" || handle.Clients != 1 {
		t.Fatalf("handle = %+v", handle)
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

// TestFacadePersistentServer drives the persistence knob end to end through
// the public facade alone: NewFileStore + NewServerWithOptions, a computed
// result, a restart on the same directory, and the byte-identical cached
// answer (the same flow `gocserve -data DIR` runs).
func TestFacadePersistentServer(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	open := func() (gameofcoins.Store, *gameofcoins.Server, *httptest.Server) {
		st, err := gameofcoins.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		api, err := gameofcoins.NewServerWithOptions(2, gameofcoins.ServerOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		return st, api, httptest.NewServer(api)
	}

	st1, api1, ts1 := open()
	c1 := gameofcoins.NewClient(ts1.URL)
	h, err := c1.SubmitEquilibriumSweep(ctx, gameofcoins.EquilibriumSweep{
		Gen: gameofcoins.GenSpec{Miners: 4, Coins: 2}, Games: 6,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var before gameofcoins.EquilibriumSweepResult
	if err := h.Result(ctx, &before); err != nil {
		t.Fatal(err)
	}
	jobID := h.Submitted.Status.ID
	// Wait for the terminal record to land (it is written asynchronously
	// when the job finishes) before simulating the restart.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, err := st1.Load()
		if err != nil {
			t.Fatal(err)
		}
		var rec gameofcoins.JobRecord = snap.Jobs[jobID]
		if rec.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal record for %s never persisted (last: %+v)", jobID, rec)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	api1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, api2, ts2 := open()
	defer func() { ts2.Close(); api2.Close(); st2.Close() }()
	c2 := gameofcoins.NewClient(ts2.URL)
	h2, err := c2.SubmitEquilibriumSweep(ctx, gameofcoins.EquilibriumSweep{
		Gen: gameofcoins.GenSpec{Miners: 4, Coins: 2}, Games: 6,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Submitted.Cached || h2.Submitted.Status.ID != jobID {
		t.Fatalf("post-restart resubmit missed the rehydrated cache: %+v", h2.Submitted)
	}
	var after gameofcoins.EquilibriumSweepResult
	if err := h2.Result(ctx, &after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rehydrated result differs:\n%+v\n%+v", before, after)
	}
}
