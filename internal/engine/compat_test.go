package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

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
			pinned, err := DecodeSpecAt(rs.Kind, 1, c.Envelope.Spec)
			if err != nil {
				t.Fatal(err)
			}
			pinnedKey, err := CacheKeyAt(pinned, 1, c.Envelope.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if pinnedKey != c.CacheKey {
				t.Fatalf("@v1-pinned key %s != bare key %s", pinnedKey, c.CacheKey)
			}
		})
	}
}

func TestGoldenCorpusJobRecords(t *testing.T) {
	for _, rec := range loadCorpus(t).JobRecords {
		t.Run(rec.ID+"/"+rec.Kind, func(t *testing.T) {
			// Pre-versioning records carry no version; the rehydration path
			// maps that to v1.
			spec, err := DecodeSpecAt(rec.Kind, 0, rec.Spec)
			if err != nil {
				t.Fatalf("recorded spec no longer decodes: %v", err)
			}
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
			// The stored result revives through the (version-aware) codec and
			// re-encodes byte-identically — what "same bytes after restart"
			// rests on.
			res, err := DecodeResult(rec.Kind, 0, rec.Result)
			if err != nil {
				t.Fatalf("recorded result no longer decodes: %v", err)
			}
			if _, isRaw := res.(json.RawMessage); isRaw {
				t.Fatalf("built-in kind %s lost its result codec", rec.Kind)
			}
			again, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want := compactJSON(t, rec.Result); !bytes.Equal(again, want) {
				t.Fatalf("result round-trip drifted:\n got %s\nwant %s", again, want)
			}
		})
	}
}
