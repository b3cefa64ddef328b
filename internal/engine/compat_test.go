package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// update rewrites the package's goldens — testdata/wire_corpus.json and
// testdata/learn_sweep_golden.json — from the current code before their
// tests check them:
//
//	go test ./internal/engine -run 'TestGoldenCorpus|TestLearnSweepGolden' -update
//
// Use it only for a deliberate wire break or result change: the goldens
// exist to catch accidental ones.
var update = flag.Bool("update", false, "rewrite the goldens in testdata from the current code")

// The golden wire-compat corpus: envelopes and job records written by the
// PR 2/3-era (pre-versioning) code, recorded under testdata/. Every entry
// must keep decoding identically through the versioned registry — bare kinds
// resolve to v1 semantics, canonical encodings and cache keys are unchanged
// byte for byte, and stored results revive losslessly. This is the
// regression gate for the acceptance criterion that versioning costs
// existing payloads nothing; internal/server's TestWireCorpusServesIdentically
// replays the same corpus against a fresh server.

type compatEnvelope struct {
	Envelope  JobEnvelope     `json:"envelope"`
	Canonical json.RawMessage `json:"canonical"`
	CacheKey  string          `json:"cache_key"`
}

// compatRecord is the PR 3 store.JobRecord wire shape, mirrored locally (the
// store package imports engine, so the test cannot import it back) and
// deliberately WITHOUT a version field: that is what every record written
// before versioning looks like.
type compatRecord struct {
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

type compatCorpus struct {
	Comment    string           `json:"comment"`
	Envelopes  []compatEnvelope `json:"envelopes"`
	JobRecords []compatRecord   `json:"job_records"`
}

func loadCorpus(t *testing.T) compatCorpus {
	t.Helper()
	if *update {
		writeCorpus(t)
	}
	b, err := os.ReadFile("testdata/wire_corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var c compatCorpus
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("corpus unreadable: %v", err)
	}
	if len(c.Envelopes) == 0 || len(c.JobRecords) == 0 {
		t.Fatal("corpus is empty")
	}
	return c
}

// compactJSON normalizes testdata formatting (MarshalIndent re-indents
// embedded RawMessages) without touching value or field order.
func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenCorpusEnvelopes(t *testing.T) {
	for _, c := range loadCorpus(t).Envelopes {
		t.Run(c.Envelope.Kind, func(t *testing.T) {
			rs, err := ResolveEnvelope(c.Envelope)
			if err != nil {
				t.Fatalf("recorded envelope no longer resolves: %v", err)
			}
			// A bare pre-versioning kind must resolve to version 1 for the
			// built-ins: registering a v2 of a built-in kind would re-route
			// every deployed client's payloads, so it must be a deliberate,
			// corpus-updating decision.
			if rs.Version != 1 {
				t.Fatalf("bare kind resolved to v%d (a built-in grew a later version; the corpus must be revisited)", rs.Version)
			}
			if rs.WireKind() != c.Envelope.Kind {
				t.Fatalf("wire kind drifted: %s", rs.WireKind())
			}
			canonical, err := CanonicalSpecJSON(rs.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := compactJSON(t, c.Canonical); !bytes.Equal(canonical, want) {
				t.Fatalf("canonical encoding drifted:\n got %s\nwant %s", canonical, want)
			}
			if key := CacheKeyJSON(rs.WireKind(), canonical, c.Envelope.Seed); key != c.CacheKey {
				t.Fatalf("cache key drifted: got %s, want %s (deployed caches and data dirs would be orphaned)", key, c.CacheKey)
			}
			// The same document submitted with an explicit @v1 pin lands on
			// the same cache line — pinning v1 is a no-op, not a cache split.
			pinned, err := ResolveEnvelope(JobEnvelope{Kind: PinnedKind(rs.Kind, 1), Spec: c.Envelope.Spec})
			if err != nil {
				t.Fatal(err)
			}
			pinnedCanonical, err := CanonicalSpecJSON(pinned.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if pinnedKey := CacheKeyJSON(pinned.WireKind(), pinnedCanonical, c.Envelope.Seed); pinnedKey != c.CacheKey {
				t.Fatalf("@v1-pinned key %s != bare key %s", pinnedKey, c.CacheKey)
			}
		})
	}
}

func TestGoldenCorpusJobRecords(t *testing.T) {
	for _, rec := range loadCorpus(t).JobRecords {
		t.Run(rec.ID+"/"+rec.Kind, func(t *testing.T) {
			// Pre-versioning records carry no version; the rehydration path
			// pins them to v1 (PinnedKind maps version 0 to 1).
			rs, err := ResolveEnvelope(JobEnvelope{Kind: PinnedKind(rec.Kind, 0), Spec: rec.Spec})
			if err != nil {
				t.Fatalf("recorded spec no longer decodes: %v", err)
			}
			spec := rs.Spec
			canonical, err := CanonicalSpecJSON(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := compactJSON(t, rec.Spec); !bytes.Equal(canonical, want) {
				t.Fatalf("stored canonical spec drifted:\n got %s\nwant %s", canonical, want)
			}
			if key := CacheKeyJSON(VersionedKind(rec.Kind, 1), canonical, rec.Seed); key != rec.Key {
				t.Fatalf("record cache key drifted: got %s, want %s", key, rec.Key)
			}
			if spec.Tasks() != rec.Tasks {
				t.Fatalf("task fan-out drifted: %d, recorded %d", spec.Tasks(), rec.Tasks)
			}
			// The stored result passes the kind's result schema, so
			// rehydration serves its bytes as they are.
			for _, e := range Catalog() {
				if e.Kind == rec.Kind && e.ResultSchema == nil {
					t.Fatalf("built-in kind %s lost its result schema", rec.Kind)
				}
			}
			if err := ValidateResult(rec.Kind, 0, rec.Result); err != nil {
				t.Fatalf("recorded result fails its schema: %v", err)
			}
		})
	}
}

// writeCorpus records testdata/wire_corpus.json (-update). Its envelopes
// mirror the golden cases of registry_test.go (same documents, same cache
// keys); its job records are in the pre-versioning store shape, with no
// "version" field, and hold results the engine computes, so the corpus is
// what a data directory of that era holds.
func writeCorpus(t *testing.T) {
	t.Helper()
	out := compatCorpus{
		Comment: "Golden wire-compat corpus: envelopes and job records in the pre-versioning wire format. " +
			"Regenerate with `go test ./internal/engine -run TestGoldenCorpus -update` ONLY for deliberate wire breaks.",
	}
	for _, env := range []JobEnvelope{
		{Kind: "learn_sweep", Seed: 11, Spec: json.RawMessage(`{"gen":{"Miners":8,"Coins":3},"schedulers":["random","round-robin"],"runs":50,"max_steps":200}`)},
		{Kind: "design_sweep", Seed: 3, Spec: json.RawMessage(`{"gen":{"Miners":4,"Coins":2},"pairs":25,"max_tries":100}`)},
		{Kind: "replay_sweep", Seed: 5, Spec: json.RawMessage(`{"params":{"Miners":30,"Epochs":144,"SpikeHour":48},"runs":10}`)},
		{Kind: "equilibrium_sweep", Seed: 7, Spec: json.RawMessage(`{"gen":{"Miners":5,"Coins":2},"games":500}`)},
	} {
		rs, canonical := resolveCanonical(t, env)
		out.Envelopes = append(out.Envelopes, compatEnvelope{
			Envelope:  env,
			Canonical: canonical,
			CacheKey:  CacheKeyJSON(rs.WireKind(), canonical, env.Seed),
		})
	}
	// Two job records with engine-computed results: kinds with a result
	// schema and small enough workloads that regeneration stays quick.
	eng := New(1)
	for i, env := range []JobEnvelope{
		{Kind: "equilibrium_sweep", Seed: 7, Spec: json.RawMessage(`{"gen":{"Miners":4,"Coins":2},"games":20}`)},
		{Kind: "learn_sweep", Seed: 11, Spec: json.RawMessage(`{"gen":{"Miners":5,"Coins":2},"schedulers":["random"],"runs":6}`)},
	} {
		rs, canonical := resolveCanonical(t, env)
		res, err := eng.Run(context.Background(), rs.Spec, env.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out.JobRecords = append(out.JobRecords, compatRecord{
			ID:     fmt.Sprintf("job-%d", i+1),
			Key:    CacheKeyJSON(rs.WireKind(), canonical, env.Seed),
			Kind:   rs.Kind,
			Seed:   env.Seed,
			Tasks:  rs.Spec.Tasks(),
			Spec:   canonical,
			State:  "done",
			Result: resJSON,
		})
	}
	writeGolden(t, "testdata/wire_corpus.json", out)
}

func resolveCanonical(t *testing.T, env JobEnvelope) (ResolvedSpec, json.RawMessage) {
	t.Helper()
	rs, err := ResolveEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := CanonicalSpecJSON(rs.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return rs, canonical
}

// writeGolden writes v to path as indented JSON with a final newline.
func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
