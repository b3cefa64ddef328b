// Wire-compat tests over the golden corpus (internal/engine/testdata), so
// the served behavior and the unit-level compat gate can never drift apart.
// The corpus's PR 2/3-era envelopes must still be served identically by a
// fresh server: bare kinds and @v1 pins share one cache line and serve
// byte-identical results, alone or batched. And a gocserve -data DIR written
// by a pre-versioning server — job records with no "version" field — must
// rehydrate through the versioned registry as v1, serve its recorded
// results byte-identically, and share cache lines with @v1-pinned
// resubmissions; a directory holding "pin" lines from the retired flat job
// API must still boot and shed them.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"gameofcoins/client"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
)

// wireCorpus is the golden corpus: envelopes as PR 2/3-era clients sent
// them, and job records as PR 3 wrote them.
type wireCorpus struct {
	Envelopes []struct {
		Envelope engine.JobEnvelope `json:"envelope"`
	} `json:"envelopes"`
	// Kept as raw bytes: the records must hit the disk exactly as PR 3
	// wrote them, not re-marshalled through today's (versioned) types.
	JobRecords []json.RawMessage `json:"job_records"`
}

func loadWireCorpus(t *testing.T) wireCorpus {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "wire_corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corp wireCorpus
	if err := json.Unmarshal(raw, &corp); err != nil {
		t.Fatal(err)
	}
	if len(corp.Envelopes) == 0 || len(corp.JobRecords) == 0 {
		t.Fatal("corpus is empty")
	}
	return corp
}

// corpusRecord is the part of a golden-corpus job record these tests read
// back; the raw record itself goes to disk verbatim.
type corpusRecord struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Kind   string          `json:"kind"`
	Seed   uint64          `json:"seed"`
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
	raw    json.RawMessage
}

// corpusRecords loads the golden corpus's pre-versioning job records.
func corpusRecords(t *testing.T) []corpusRecord {
	t.Helper()
	var recs []corpusRecord
	for _, rec := range loadWireCorpus(t).JobRecords {
		if bytes.Contains(rec, []byte(`"version"`)) {
			t.Fatalf("corpus record is not pre-versioning: %s", rec)
		}
		var cr corpusRecord
		if err := json.Unmarshal(rec, &cr); err != nil {
			t.Fatal(err)
		}
		cr.raw = rec
		recs = append(recs, cr)
	}
	return recs
}

// TestWireCorpusServesIdentically replays the corpus's old-format envelopes
// against a fresh server with persistence: the catalog still advertises
// every corpus kind at v1 with a schema, and /healthz agrees with it on the
// fingerprint; each bare-kind submission (the recorded bytes) runs to done;
// an @v1 pin of it is a cache hit on the same job serving a byte-identical
// result body; and the whole corpus sent as one batch is all cache hits
// with identical bytes.
func TestWireCorpusServesIdentically(t *testing.T) {
	corp := loadWireCorpus(t)
	p := openPersistent(t, t.TempDir(), false)
	c := client.New(p.URL)
	ctx := context.Background()

	cat, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v1Schema := map[string]bool{}
	for _, e := range cat.Specs {
		if e.Version == 1 {
			v1Schema[e.Kind] = e.Schema != nil
		}
	}
	for _, ce := range corp.Envelopes {
		if !v1Schema[ce.Envelope.Kind] {
			t.Fatalf("catalog lost %s@v1 or its schema", ce.Envelope.Kind)
		}
	}
	var hz struct {
		Fingerprint string `json:"catalog_fingerprint"`
	}
	if err := json.Unmarshal(rawGet(t, p.URL+"/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Fingerprint != cat.Fingerprint {
		t.Fatalf("healthz fingerprint %q != catalog %q", hz.Fingerprint, cat.Fingerprint)
	}

	results := make([][]byte, len(corp.Envelopes))
	items := make([]client.BatchItem, len(corp.Envelopes))
	for i, ce := range corp.Envelopes {
		env := ce.Envelope
		h, err := c.Submit(ctx, env.Kind, env.Seed, env.Spec)
		if err != nil {
			t.Fatalf("%s: old-format submit rejected: %v", env.Kind, err)
		}
		st, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != engine.StateDone {
			t.Fatalf("%s: job ended %s: %s", env.Kind, st.State, st.Error)
		}
		results[i] = rawGet(t, p.URL+"/v2/jobs/"+h.ID()+"/result")

		pinned, err := c.Submit(ctx, env.Kind, env.Seed, env.Spec, client.AtVersion(1))
		if err != nil {
			t.Fatalf("%s: @v1 pin rejected: %v", env.Kind, err)
		}
		if !pinned.Submitted.Cached || pinned.Submitted.Status.ID != st.ID {
			t.Fatalf("%s: @v1 pin missed the bare-kind cache entry (cached=%v job=%s vs %s)",
				env.Kind, pinned.Submitted.Cached, pinned.Submitted.Status.ID, st.ID)
		}
		if got := rawGet(t, p.URL+"/v2/jobs/"+pinned.ID()+"/result"); !bytes.Equal(got, results[i]) {
			t.Fatalf("%s: result bodies differ between bare and @v1 submissions", env.Kind)
		}
		items[i] = client.BatchItem{Kind: env.Kind, Seed: env.Seed, Spec: env.Spec}
	}

	batch, err := c.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("batch item %d (%s): %v", i, items[i].Kind, r.Err)
		}
		if !r.Handle.Submitted.Cached {
			t.Fatalf("batch item %d (%s) recomputed instead of hitting the cache", i, items[i].Kind)
		}
		if got := rawGet(t, p.URL+"/v2/jobs/"+r.Handle.ID()+"/result"); !bytes.Equal(got, results[i]) {
			t.Fatalf("batch item %d (%s): result bytes differ from the single-submit replay", i, items[i].Kind)
		}
	}
}

// forgeDataDir writes a pre-versioning log: per record, its verbatim
// {"op":"job"} line and a {"op":"handle"} line for handle h-<i+1>, followed
// by the extra lines given.
func forgeDataDir(t *testing.T, recs []corpusRecord, extra ...string) string {
	t.Helper()
	dir := t.TempDir()
	var log bytes.Buffer
	for i, rec := range recs {
		line, err := json.Marshal(map[string]json.RawMessage{
			"op":  json.RawMessage(`"job"`),
			"job": rec.raw,
		})
		if err != nil {
			t.Fatal(err)
		}
		log.Write(line)
		fmt.Fprintf(&log, "\n{\"op\":\"handle\",\"id\":\"h-%d\",\"job_id\":%q}\n", i+1, rec.ID)
	}
	for _, line := range extra {
		log.WriteString(line + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "log.jsonl"), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkServedResult asserts the handle serves rec's recorded result
// byte-identically (modulo the response's indentation) under rec's job ID.
func checkServedResult(t *testing.T, base, handle string, rec corpusRecord) {
	t.Helper()
	var served struct {
		ID     string          `json:"id"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rawGet(t, base+"/v2/jobs/"+handle+"/result"), &served); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, rec.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, served.Result); err != nil {
		t.Fatal(err)
	}
	if served.ID != rec.ID || !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("%s: served %s result drifted from the recorded one:\n%s\n%s", rec.ID, served.ID, &got, &want)
	}
}

func TestRehydratePreVersioningDataDir(t *testing.T) {
	recs := corpusRecords(t)
	p := openPersistent(t, forgeDataDir(t, recs), false)
	c := client.New(p.URL)
	ctx := context.Background()

	for i, rec := range recs {
		// The recorded result is served byte-identically under the original
		// job ID, through the persisted handle.
		checkServedResult(t, p.URL, fmt.Sprintf("h-%d", i+1), rec)

		// A @v1-pinned resubmission of the recorded spec hits the
		// rehydrated cache entry — version-less records key as v1.
		h, err := c.Submit(ctx, rec.Kind, rec.Seed, rec.Spec, client.AtVersion(1))
		if err != nil {
			t.Fatal(err)
		}
		if !h.Submitted.Cached || h.Submitted.Status.ID != rec.ID {
			t.Fatalf("%s: @v1 resubmit missed the rehydrated entry: %+v", rec.ID, h.Submitted)
		}
		// And so does a bare-kind one (what a PR 3 client still sends).
		h2, err := c.Submit(ctx, rec.Kind, rec.Seed, rec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !h2.Submitted.Cached || h2.Submitted.Status.ID != rec.ID {
			t.Fatalf("%s: bare-kind resubmit missed the rehydrated entry: %+v", rec.ID, h2.Submitted)
		}
		if st := h2.Submitted.Status; st.Kind != rec.Kind || !st.State.Terminal() {
			t.Fatalf("%s: rehydrated status = %+v", rec.ID, st)
		}
	}

	// The rehydrated jobs are engine-visible under their original IDs with
	// full progress (Restore path), not recomputing.
	for i, rec := range recs {
		st := handleStatus(t, p.URL, fmt.Sprintf("h-%d", i+1))
		if st.ID != rec.ID || st.State != engine.StateDone || st.Progress.Done != st.Progress.Total || st.Progress.Total == 0 {
			t.Fatalf("%s: status after rehydration = %+v", rec.ID, st)
		}
	}
}

// TestRehydrateIgnoresRetiredPins: data directories written while the flat
// job API existed carry "pin" lines marking the jobs its clients touched.
// Such a directory must boot, serve every job byte-identically through its
// handle, and lose the pin lines at the next compaction. Pins no longer
// hold a job alive: releasing the last handle of a once-pinned job cancels
// it like any other.
func TestRehydrateIgnoresRetiredPins(t *testing.T) {
	recs := corpusRecords(t)
	// Besides the corpus jobs, job-9 was mid-run at shutdown: it comes back
	// running, blocked on its gate, with h-9 as its only handle.
	gate := uniqueName("pinned")
	defer openGate(gate)
	extra := []string{
		fmt.Sprintf(`{"op":"job","job":{"id":"job-9","key":"k-pinned","kind":"test_gated","seed":1,"tasks":2,"spec":{"name":%q,"n":2,"free":0},"state":"submitted"}}`, gate),
		`{"op":"handle","id":"h-9","job_id":"job-9"}`,
		`{"op":"pin","job_id":"job-9"}`,
	}
	for _, rec := range recs {
		extra = append(extra, fmt.Sprintf(`{"op":"pin","job_id":%q}`, rec.ID))
	}
	dir := forgeDataDir(t, recs, extra...)

	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("data dir with pin lines rejected: %v", err)
	}
	s, err := server.NewWithOptions(2, server.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	p := servePersistent(t, s, st)
	c := client.New(p.URL)
	ctx := context.Background()

	for i, rec := range recs {
		checkServedResult(t, p.URL, fmt.Sprintf("h-%d", i+1), rec)
	}

	if st := handleStatus(t, p.URL, "h-9"); st.ID != "job-9" || st.State.Terminal() {
		t.Fatalf("interrupted pinned job after rehydration = %+v, want job-9 running", st)
	}
	req, err := http.NewRequest(http.MethodDelete, p.URL+"/v2/jobs/h-9", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release h-9: status %d", resp.StatusCode)
	}
	if st := s.WaitJobTerminal(t, "job-9"); st.State != engine.StateCanceled {
		t.Fatalf("once-pinned job after its last release = %+v, want canceled", st)
	}

	// Churn handles on a cached job: every mint and release is one logged
	// op, and the log compacts once the ops reach the store's floor of
	// 1,024 (and four times the live records, fewer than twenty here).
	for i := 0; i < 600; i++ {
		h, err := c.Submit(ctx, recs[0].Kind, recs[0].Seed, recs[0].Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Submitted.Cached || h.Submitted.Status.ID != recs[0].ID {
			t.Fatalf("resubmit missed the rehydrated entry: %+v", h.Submitted)
		}
		if err := h.Release(ctx); err != nil {
			t.Fatal(err)
		}
	}
	p.shutdown() // drains the persist queue

	log, err := os.ReadFile(filepath.Join(dir, "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(log, []byte(`"pin"`)) {
		t.Fatalf("compaction kept the retired pin lines:\n%s", log)
	}

	// The compacted directory still serves every job through its handle.
	p2 := openPersistent(t, dir, false)
	for i, rec := range recs {
		checkServedResult(t, p2.URL, fmt.Sprintf("h-%d", i+1), rec)
	}
}
