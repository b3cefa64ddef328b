//go:build ignore

// gen_corpus regenerates testdata/wire_corpus.json — the golden wire-compat
// corpus of PR 2/3-era envelopes and job records the versioned registry must
// keep decoding byte-identically. Run it only when the wire format changes
// ON PURPOSE (which invalidates every deployed cache and data directory):
//
//	go run gen_corpus.go
//
// The envelopes mirror the golden cases of registry_test.go (same documents,
// same cache keys); the job records are written in the pre-versioning store
// shape — no "version" field — with results actually computed by the engine,
// so the corpus is what a real PR 3 data directory holds.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"gameofcoins/internal/engine"
)

type corpusEnvelope struct {
	Envelope  engine.JobEnvelope `json:"envelope"`
	Canonical json.RawMessage    `json:"canonical"`
	CacheKey  string             `json:"cache_key"`
}

// corpusRecord is the PR 3 store.JobRecord wire shape, spelled out locally
// so the corpus generator (and the compat test) cannot silently absorb
// future record-field changes.
type corpusRecord struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Kind   string          `json:"kind"`
	Seed   uint64          `json:"seed"`
	Tasks  int             `json:"tasks"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type corpus struct {
	Comment    string           `json:"comment"`
	Envelopes  []corpusEnvelope `json:"envelopes"`
	JobRecords []corpusRecord   `json:"job_records"`
}

func main() {
	out := corpus{
		Comment: "Golden wire-compat corpus: PR 2/3-era envelopes and job records. " +
			"Regenerate with `go run gen_corpus.go` ONLY for deliberate wire breaks.",
	}

	envelopes := []engine.JobEnvelope{
		{Kind: "learn_sweep", Seed: 11, Spec: json.RawMessage(`{"gen":{"Miners":8,"Coins":3},"schedulers":["random","round-robin"],"runs":50,"max_steps":200}`)},
		{Kind: "design_sweep", Seed: 3, Spec: json.RawMessage(`{"gen":{"Miners":4,"Coins":2},"pairs":25,"max_tries":100}`)},
		{Kind: "replay_sweep", Seed: 5, Spec: json.RawMessage(`{"params":{"Miners":30,"Epochs":144,"SpikeHour":48},"runs":10}`)},
		{Kind: "equilibrium_sweep", Seed: 7, Spec: json.RawMessage(`{"gen":{"Miners":5,"Coins":2},"games":500}`)},
	}
	for _, env := range envelopes {
		rs, err := engine.ResolveEnvelope(env)
		check(err)
		canonical, err := engine.CanonicalSpecJSON(rs.Spec)
		check(err)
		out.Envelopes = append(out.Envelopes, corpusEnvelope{
			Envelope:  env,
			Canonical: canonical,
			CacheKey:  engine.CacheKeyJSON(rs.WireKind(), canonical, env.Seed),
		})
	}

	// Two job records with engine-computed results: kinds with a result
	// schema and small enough workloads that regeneration stays quick.
	records := []engine.JobEnvelope{
		{Kind: "equilibrium_sweep", Seed: 7, Spec: json.RawMessage(`{"gen":{"Miners":4,"Coins":2},"games":20}`)},
		{Kind: "learn_sweep", Seed: 11, Spec: json.RawMessage(`{"gen":{"Miners":5,"Coins":2},"schedulers":["random"],"runs":6}`)},
	}
	eng := engine.New(1)
	for i, env := range records {
		rs, err := engine.ResolveEnvelope(env)
		check(err)
		canonical, err := engine.CanonicalSpecJSON(rs.Spec)
		check(err)
		res, err := eng.Run(context.Background(), rs.Spec, env.Seed, nil)
		check(err)
		resJSON, err := json.Marshal(res)
		check(err)
		out.JobRecords = append(out.JobRecords, corpusRecord{
			ID:     fmt.Sprintf("job-%d", i+1),
			Key:    engine.CacheKeyJSON(rs.WireKind(), canonical, env.Seed),
			Kind:   rs.Kind,
			Seed:   env.Seed,
			Tasks:  rs.Spec.Tasks(),
			Spec:   canonical,
			State:  "done",
			Result: resJSON,
		})
	}

	b, err := json.MarshalIndent(out, "", "  ")
	check(err)
	check(os.WriteFile("testdata/wire_corpus.json", append(b, '\n'), 0o644))
	fmt.Printf("wrote testdata/wire_corpus.json (%d envelopes, %d records)\n", len(out.Envelopes), len(out.JobRecords))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen_corpus:", err)
		os.Exit(1)
	}
}
