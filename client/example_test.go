package client_test

import (
	"context"
	"fmt"
	"log"

	"gameofcoins"
	"gameofcoins/client"
)

// Example demonstrates the minimal session: submit, wait, fetch, release.
// (Compile-checked only: it needs a running gocserve.)
func Example() {
	ctx := context.Background()
	c := client.New("http://localhost:8372")
	h, err := c.SubmitEquilibriumSweep(ctx, gameofcoins.EquilibriumSweep{
		Gen: gameofcoins.GenSpec{Miners: 5, Coins: 2}, Games: 200,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	var res gameofcoins.EquilibriumSweepResult
	if err := h.Result(ctx, &res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d/%d games had multiple equilibria\n", res.Multiple, res.Games)
	_ = h.Release(ctx)
}

// ExampleClient_Catalog introspects the versioned spec catalog: kinds,
// versions, schemas, and the fingerprint identifying the accepted wire
// surface.
func ExampleClient_Catalog() {
	ctx := context.Background()
	c := client.New("http://localhost:8372")
	cat, err := c.Catalog(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("catalog", cat.Fingerprint)
	for _, e := range cat.Specs {
		fmt.Printf("%s v%d latest=%v\n", e.Wire, e.Version, e.Latest)
	}
}

// ExampleAtVersion pins a submission to an exact spec version: the envelope
// goes out as "learn_sweep@v1" and keeps that wire format even after the
// server registers a v2 (pinning v1 shares cache lines with bare-kind
// submissions — v1 is the bare wire format).
func ExampleAtVersion() {
	ctx := context.Background()
	c := client.New("http://localhost:8372")
	h, err := c.SubmitLearnSweep(ctx, gameofcoins.LearnSweep{
		Gen: gameofcoins.GenSpec{Miners: 6, Coins: 2}, Runs: 50,
	}, 11, client.AtVersion(1))
	if err != nil {
		log.Fatal(err)
	}
	defer h.Release(ctx)
}

// ExampleClient_SubmitBatch submits a sweep-of-sweeps in one round-trip:
// per-item handles (or per-item errors — one bad item never sinks the
// batch), each behaving exactly like a single submission's.
func ExampleClient_SubmitBatch() {
	ctx := context.Background()
	c := client.New("http://localhost:8372")
	var items []client.BatchItem
	for seed := uint64(1); seed <= 10; seed++ {
		items = append(items, client.BatchItem{
			Kind: "equilibrium_sweep", Seed: seed,
			Spec: gameofcoins.EquilibriumSweep{Gen: gameofcoins.GenSpec{Miners: 5, Coins: 2}, Games: 100},
		})
	}
	results, err := c.SubmitBatch(ctx, items)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			log.Printf("item %d: %v", i, r.Err)
			continue
		}
		if _, err := r.Handle.Wait(ctx); err != nil {
			log.Fatal(err)
		}
		var res gameofcoins.EquilibriumSweepResult
		if err := r.Handle.Result(ctx, &res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("seed %d: %d multiple-equilibria games\n", items[i].Seed, res.Multiple)
		_ = r.Handle.Release(ctx)
	}
}

// ExampleHandle_Watch streams a job's progress. The channel stays open
// across server restarts: a dropped stream reconnects with backoff and
// Last-Event-ID, and closes only after the terminal status (or when ctx is
// canceled / the handle is gone).
func ExampleHandle_Watch() {
	ctx := context.Background()
	c := client.New("http://localhost:8372")
	h, err := c.SubmitReplaySweep(ctx, gameofcoins.ReplaySweep{
		Params: gameofcoins.ReplayScenarioParams{Miners: 100, Epochs: 720, SpikeHour: 240},
		Runs:   32,
	}, 5)
	if err != nil {
		log.Fatal(err)
	}
	ch, err := h.Watch(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for st := range ch {
		fmt.Printf("%s %d/%d\n", st.State, st.Progress.Done, st.Progress.Total)
	}
}
