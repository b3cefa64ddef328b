// Catalog v3 tests: versioned spec introspection over GET /v2/specs, schema
// enforcement on submission, version pinning and coexistence, and batch
// submission — all through the public client SDK, like v2_test.go.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"gameofcoins/client"
	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
)

// pairSpecV1 and pairSpecV2 are two coexisting wire formats of one kind:
// the acceptance scenario for the catalog redesign. v2 renames the field
// and doubles the work — a breaking change that pre-versioning would have
// either broken old clients or silently split cache behavior.
type pairSpecV1 struct {
	N int `json:"n"`
}

func (s pairSpecV1) Kind() string { return "test_pair" }
func (s pairSpecV1) Tasks() int   { return 1 }
func (s pairSpecV1) RunTask(_ context.Context, _ int, _ *rng.Rand) (any, error) {
	return s.N, nil
}
func (s pairSpecV1) Aggregate(results []any) (any, error) { return results[0], nil }

type pairSpecV2 struct {
	Count int `json:"count"`
}

func (s pairSpecV2) Kind() string { return "test_pair" }
func (s pairSpecV2) Tasks() int   { return 1 }
func (s pairSpecV2) RunTask(_ context.Context, _ int, _ *rng.Rand) (any, error) {
	return s.Count * 2, nil
}
func (s pairSpecV2) Aggregate(results []any) (any, error) { return results[0], nil }

func init() {
	engine.RegisterSpec("test_pair", 1, engine.DecodeJSON[pairSpecV1](),
		engine.SchemaObject(map[string]*engine.Schema{"n": engine.SchemaInt("value")}))
	engine.RegisterSpec("test_pair", 2, engine.DecodeJSON[pairSpecV2](),
		engine.SchemaObject(map[string]*engine.Schema{"count": engine.SchemaInt("value")}))
}

// TestSpecCatalogEndpoints: GET /v2/specs serves the full catalog with
// fingerprint and schemas, GET /v2/specs/{kind} one entry (latest or
// pinned), and /healthz reports the same fingerprint plus build info.
func TestSpecCatalogEndpoints(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	cat, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Fingerprint != engine.CatalogFingerprint() {
		t.Fatalf("fingerprint %q != registry's %q", cat.Fingerprint, engine.CatalogFingerprint())
	}
	byWire := map[string]engine.CatalogEntry{}
	for _, e := range cat.Specs {
		byWire[e.Wire] = e
	}
	ls, ok := byWire["learn_sweep"]
	if !ok || ls.Version != 1 || !ls.Latest || ls.Schema == nil {
		t.Fatalf("learn_sweep catalog entry = %+v", ls)
	}
	if ls.Schema.Properties["runs"] == nil || ls.Schema.Properties["runs"].Type != "integer" {
		t.Fatalf("learn_sweep schema lost its runs field: %+v", ls.Schema)
	}
	if e := byWire["test_pair@v2"]; !e.Latest || e.Version != 2 {
		t.Fatalf("test_pair@v2 entry = %+v", e)
	}
	if e := byWire["test_pair"]; e.Latest || e.Version != 1 {
		t.Fatalf("test_pair (v1) entry = %+v", e)
	}

	// Single-entry endpoint: bare kind resolves to latest, pins work, and
	// unknown/malformed kinds 404/400.
	if e, err := c.Spec(ctx, "test_pair"); err != nil || e.Version != 2 {
		t.Fatalf("Spec(test_pair) = %+v, %v", e, err)
	}
	if e, err := c.Spec(ctx, "test_pair@v1"); err != nil || e.Version != 1 || e.Schema.Properties["n"] == nil {
		t.Fatalf("Spec(test_pair@v1) = %+v, %v", e, err)
	}
	var apiErr *client.APIError
	if _, err := c.Spec(ctx, "nope_sweep"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown kind err = %v", err)
	}
	if _, err := c.Spec(ctx, "test_pair@vx"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed pin err = %v", err)
	}

	// /healthz: build info + the same fingerprint.
	var hz struct {
		Status      string `json:"status"`
		Version     string `json:"version"`
		Go          string `json:"go"`
		Fingerprint string `json:"catalog_fingerprint"`
		Kinds       int    `json:"kinds"`
	}
	if err := json.Unmarshal(rawGet(t, base+"/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Version != server.Version || hz.Go == "" {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Fingerprint != cat.Fingerprint || hz.Kinds != len(engine.SpecKinds()) {
		t.Fatalf("healthz fingerprint/kinds drifted from catalog: %+v", hz)
	}
}

// TestVersionCoexistence: a bare kind runs the latest version, @vN pins —
// both versions runnable side by side with distinct cache lines — and
// pinning v1 shares the bare-kind-era cache line exactly.
func TestVersionCoexistence(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	// Latest (v2): field "count", result doubled.
	h2, err := c.Submit(ctx, "test_pair", 4, pairSpecV2{Count: 21})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := h2.Wait(ctx); err != nil || st.State != engine.StateDone {
		t.Fatalf("v2 job: %+v, %v", st, err)
	}
	var got int
	if err := h2.Result(ctx, &got); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("v2 result = %d, want 42", got)
	}

	// Pinned v1: field "n", result as-is; its own job and cache line.
	h1, err := c.Submit(ctx, "test_pair", 4, pairSpecV1{N: 21}, client.AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := h1.Wait(ctx); err != nil || st.State != engine.StateDone {
		t.Fatalf("v1 job: %+v, %v", st, err)
	}
	if err := h1.Result(ctx, &got); err != nil {
		t.Fatal(err)
	}
	if got != 21 {
		t.Fatalf("v1 result = %d, want 21", got)
	}
	if h1.Submitted.Status.ID == h2.Submitted.Status.ID {
		t.Fatal("v1 and v2 submissions shared a job")
	}

	// The v1 document under the latest version is a schema mismatch: 422
	// with the field's JSON pointer.
	_, err = c.Submit(ctx, "test_pair", 4, pairSpecV1{N: 21})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("v1 doc under v2 err = %v, want 422", err)
	}

	// Re-pinning v1 dedupes onto the v1 job — @v1 and the pre-versioning
	// bare form are one cache line (the golden corpus pins the bare half).
	h1b, err := c.Submit(ctx, "test_pair", 4, pairSpecV1{N: 21}, client.AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	if !h1b.Submitted.Cached || h1b.Submitted.Status.ID != h1.Submitted.Status.ID {
		t.Fatalf("repinned v1 missed the cache: %+v", h1b.Submitted)
	}
}

// TestBatchSubmit: one POST /v2/batch mixes successes, a dedupe pair, an
// unknown kind, and a schema mismatch; results come back index-aligned with
// per-item codes, and the good items run to completion.
func TestBatchSubmit(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	items := []client.BatchItem{
		{Kind: "toy_sum", Seed: 31, Spec: toySpec{N: 4}},
		{Kind: "toy_sum", Seed: 31, Spec: toySpec{N: 4}}, // identical: dedupes onto item 0's job
		{Kind: "bogus_sweep", Seed: 1, Spec: map[string]any{}},
		{Kind: "toy_sum", Seed: 31, Spec: map[string]any{"m": 4}}, // schema mismatch
		{Kind: "toy_sum", Seed: 32, Spec: toySpec{N: 5}},
	}
	results, err := c.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[1].Err != nil || results[4].Err != nil {
		t.Fatalf("good items errored: %v %v %v", results[0].Err, results[1].Err, results[4].Err)
	}
	// Items 0 and 1 dedupe onto one job with distinct handles.
	j0, j1 := results[0].Handle.Submitted.Status.ID, results[1].Handle.Submitted.Status.ID
	if j0 != j1 {
		t.Fatalf("identical batch items ran separate jobs %s, %s", j0, j1)
	}
	if results[0].Handle.ID() == results[1].Handle.ID() {
		t.Fatal("identical batch items shared a handle")
	}
	if !results[1].Handle.Submitted.Cached {
		t.Fatal("second identical item not marked cached")
	}
	var be *client.BatchError
	if !errors.As(results[2].Err, &be) || be.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind item err = %v", results[2].Err)
	}
	if !errors.As(results[3].Err, &be) || be.StatusCode != http.StatusUnprocessableEntity || be.Path != "/m" {
		t.Fatalf("schema mismatch item err = %v", results[3].Err)
	}

	// The handles are live: wait and fetch like any single submission.
	for _, i := range []int{0, 4} {
		h := results[i].Handle
		if st, err := h.Wait(ctx); err != nil || st.State != engine.StateDone {
			t.Fatalf("item %d: %+v, %v", i, st, err)
		}
		var sum int
		if err := h.Result(ctx, &sum); err != nil {
			t.Fatal(err)
		}
		want := 12 // 2*(0+1+2+3)
		if i == 4 {
			want = 20 // 2*(0+1+2+3+4)
		}
		if sum != want {
			t.Fatalf("item %d result = %d, want %d", i, sum, want)
		}
	}

	// Handle refcount sanity: releasing one of the deduped handles leaves
	// the other's job (and cached result) intact.
	if err := results[0].Handle.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if jh, err := results[1].Handle.Status(ctx); err != nil || jh.State != engine.StateDone {
		t.Fatalf("surviving handle: %+v, %v", jh, err)
	}

	// A malformed *envelope* inside the batch (typo'd field, wrong shape)
	// errors its own slot only — per-item isolation covers decode failures,
	// not just registry-level ones.
	resp, err := http.Post(base+"/v2/batch", "application/json", bytes.NewReader([]byte(
		`{"jobs":[{"kind":"toy_sum","seed":41,"spec":{"n":2}},{"knd":"toy_sum","seed":1},"not-an-object"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var mixed struct {
		Results []server.BatchResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mixed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(mixed.Results) != 3 {
		t.Fatalf("mixed batch: status %d, results %+v", resp.StatusCode, mixed.Results)
	}
	if mixed.Results[0].Job == nil || mixed.Results[0].Error != "" {
		t.Fatalf("good item next to a typo'd envelope failed: %+v", mixed.Results[0])
	}
	for _, i := range []int{1, 2} {
		if mixed.Results[i].Job != nil || mixed.Results[i].Code != http.StatusBadRequest {
			t.Fatalf("malformed envelope item %d = %+v, want per-item 400", i, mixed.Results[i])
		}
	}

	// Batch-level rejections: empty and oversized bodies, and an unknown
	// field on the batch wrapper itself.
	for name, body := range map[string]string{
		"empty":    `{"jobs":[]}`,
		"unknown":  `{"jbos":[]}`,
		"too_many": `{"jobs":[` + repeatEnvelopes(server.MaxBatchJobs+1) + `]}`,
	} {
		resp, err := http.Post(base+"/v2/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s batch: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func repeatEnvelopes(n int) string {
	one := `{"kind":"toy_sum","seed":1,"spec":{"n":1}}`
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(one)
	}
	return buf.String()
}

// TestBareKindSharesLatestPinnedLine: a bare kind resolves to the latest
// registered version, so while a built-in's latest is v1, a bare submission
// and an explicitly @v1-pinned one are the same cache line.
func TestBareKindSharesLatestPinnedLine(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	spec := engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 5}
	bare, err := c.Submit(ctx, "equilibrium_sweep", 14, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, base, bare.ID())

	h, err := c.Submit(ctx, "equilibrium_sweep", 14, spec, client.AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Submitted.Cached || h.Submitted.Status.ID != bare.Submitted.Status.ID {
		t.Fatalf("@v1 pin missed the bare-kind cache entry: %+v", h.Submitted)
	}
}
