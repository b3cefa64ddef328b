// Admission-control API tests: API-key auth (401), handle ownership (403),
// submission rate limiting (429 + Retry-After), priority-class validation
// (422), and the client SDK's retry/backoff behavior against a rate-limited
// server. External test package so the flows run through the public SDK.
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/server"
	"gameofcoins/internal/traffic"
)

// trafficServer starts a server under the given admission-control config.
func trafficServer(t *testing.T, cfg traffic.Config) string {
	t.Helper()
	s, err := server.NewWithOptions(4, server.Options{Traffic: traffic.New(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

func testKeyring(t *testing.T) *traffic.Keyring {
	t.Helper()
	k, err := traffic.ParseKeyring(strings.NewReader("alpha:alpha-secret-1\nbeta:beta-secret-22"))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func apiStatus(t *testing.T, err error) *client.APIError {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *client.APIError, got %T: %v", err, err)
	}
	return apiErr
}

// TestAuthGateAndHandleOwnership: with a keyring, unkeyed submissions 401,
// keyed ones run and carry the client identity on the handle, and one
// tenant cannot release (and thereby cancel) another tenant's handle.
func TestAuthGateAndHandleOwnership(t *testing.T) {
	base := trafficServer(t, traffic.Config{Keyring: testKeyring(t)})
	ctx := context.Background()

	if _, err := client.New(base).Submit(ctx, "toy_sum", 1, toySpec{N: 4}); err == nil {
		t.Fatal("unkeyed submit passed an enforced keyring")
	} else if apiStatus(t, err).StatusCode != http.StatusUnauthorized {
		t.Fatalf("unkeyed submit: %v, want 401", err)
	}
	if _, err := client.New(base, client.WithAPIKey("wrong-key-9")).Submit(ctx, "toy_sum", 1, toySpec{N: 4}); err == nil {
		t.Fatal("unknown key passed an enforced keyring")
	} else if apiStatus(t, err).StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: %v, want 401", err)
	}

	alpha := client.New(base, client.WithAPIKey("alpha-secret-1"))
	h, err := alpha.Submit(ctx, "toy_sum", 1, toySpec{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Submitted.Client != "alpha" {
		t.Fatalf("handle client = %q, want alpha", h.Submitted.Client)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// beta attaches to the same job via dedup, but must not be able to
	// release alpha's claim on it.
	beta := client.New(base, client.WithAPIKey("beta-secret-22"))
	hb, err := beta.Submit(ctx, "toy_sum", 1, toySpec{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !hb.Submitted.Cached {
		t.Fatal("identical cross-tenant submission did not dedupe")
	}
	// Ownership gates reads too, not just release: handles are sequential,
	// so a foreign status, result, or event poll must 403, or any tenant
	// could enumerate handles and read other tenants' results.
	for _, path := range []string{"", "/result", "/events"} {
		req, _ := http.NewRequest(http.MethodGet, base+"/v2/jobs/"+h.ID()+path, nil)
		req.Header.Set("Authorization", "Bearer beta-secret-22")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("cross-tenant GET %s = %d, want 403", path, resp.StatusCode)
		}
	}
	// Each tenant still reads through its own handle to the shared job.
	if _, err := hb.Wait(ctx); err != nil {
		t.Fatalf("beta reading via its own handle: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v2/jobs/"+h.ID(), nil)
	req.Header.Set("Authorization", "Bearer beta-secret-22")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant release = %d, want 403", resp.StatusCode)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatalf("owner release: %v", err)
	}
	if err := hb.Release(ctx); err != nil {
		t.Fatalf("beta releasing its own handle: %v", err)
	}
}

// TestRateLimit429CarriesRetryAfter: past the burst, submissions 429 with a
// positive Retry-After, and /healthz reports the throttle counters.
func TestRateLimit429CarriesRetryAfter(t *testing.T) {
	base := trafficServer(t, traffic.Config{Keyring: testKeyring(t), Rate: 0.5, Burst: 2})
	ctx := context.Background()
	// Retries off: this client wants to see the raw 429s.
	alpha := client.New(base, client.WithAPIKey("alpha-secret-1"), client.WithRetryLimit(0))

	throttled := 0
	var lastErr *client.APIError
	for seed := uint64(0); seed < 4; seed++ {
		_, err := alpha.Submit(ctx, "toy_sum", seed, toySpec{N: 1})
		if err == nil {
			continue
		}
		apiErr := apiStatus(t, err)
		if apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("unexpected submit error: %v", err)
		}
		throttled++
		lastErr = apiErr
	}
	if throttled != 2 {
		t.Fatalf("throttled %d of 4 submissions at burst 2, want 2", throttled)
	}
	if lastErr.RetryAfter <= 0 {
		t.Fatalf("429 carried RetryAfter %v, want > 0", lastErr.RetryAfter)
	}

	var health struct {
		Traffic traffic.Stats `json:"traffic"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	st := health.Traffic
	if !st.Enforced || st.Clients != 2 {
		t.Fatalf("healthz traffic = %+v, want enforced with 2 clients", st)
	}
	if st.PerClient["alpha"].Admitted != 2 || st.PerClient["alpha"].Throttled != 2 {
		t.Fatalf("alpha stats = %+v, want 2 admitted / 2 throttled", st.PerClient["alpha"])
	}
}

// TestClientRetriesRateLimitedSubmit is the SDK regression test against a
// rate-limited server: a 429 with Retry-After must be waited out and the
// submission retried — not surfaced, and not spun on. The stub server
// rejects the first two attempts and records what the client sent.
func TestClientRetriesRateLimitedSubmit(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Authorization"); got != "Bearer alpha-secret-1" {
			t.Errorf("Authorization = %q", got)
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			//goclint:allow errdrop -- test stub; a failed write fails the test downstream
			_, _ = w.Write([]byte(`{"error":"submission rate limit exceeded"}`))
			return
		}
		w.WriteHeader(http.StatusCreated)
		//goclint:allow errdrop -- test stub
		_, _ = w.Write([]byte(`{"handle":"h-1","clients":1,"id":"job-1","kind":"toy_sum","state":"running","progress":{"done":0,"total":1}}`))
	}))
	defer stub.Close()

	c := client.New(stub.URL, client.WithAPIKey("alpha-secret-1"))
	h, err := c.Submit(context.Background(), "toy_sum", 1, toySpec{N: 1})
	if err != nil {
		t.Fatalf("submit did not survive two 429s: %v", err)
	}
	if h.ID() != "h-1" {
		t.Fatalf("handle = %q", h.ID())
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 429s then success)", calls.Load())
	}

	// With retries disabled the first 429 surfaces, with its Retry-After.
	calls.Store(0)
	raw := client.New(stub.URL, client.WithAPIKey("alpha-secret-1"), client.WithRetryLimit(0))
	_, err = raw.Submit(context.Background(), "toy_sum", 2, toySpec{N: 1})
	apiErr := apiStatus(t, err)
	if apiErr.StatusCode != http.StatusTooManyRequests || apiErr.RetryAfter <= 0 {
		t.Fatalf("retry-disabled submit: %+v", apiErr)
	}
}

// TestBatchPartialThrottleRetryAfter: batch items are admitted individually
// against the submitter's bucket, so a batch bigger than the remaining
// budget is *partially* throttled — the items within budget mint handles,
// the rest 429 in their own slots with per-item Retry-After hints, exactly
// the signal a single throttled submission gets in its header.
func TestBatchPartialThrottleRetryAfter(t *testing.T) {
	base := trafficServer(t, traffic.Config{Keyring: testKeyring(t), Rate: 0.5, Burst: 2})
	ctx := context.Background()
	// Retries off: this test wants to see the raw partial throttle.
	alpha := client.New(base, client.WithAPIKey("alpha-secret-1"), client.WithRetryLimit(0))

	items := make([]client.BatchItem, 4)
	for i := range items {
		items[i] = client.BatchItem{Kind: "toy_sum", Seed: uint64(i + 1), Spec: toySpec{N: i + 1}}
	}
	results, err := alpha.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	// Admission is in request order: the burst covers the first two items.
	for i := 0; i < 2; i++ {
		if results[i].Handle == nil {
			t.Fatalf("item %d within the burst failed: %v", i, results[i].Err)
		}
	}
	for i := 2; i < 4; i++ {
		var be *client.BatchError
		if !errors.As(results[i].Err, &be) {
			t.Fatalf("item %d past the burst: got %v, want *client.BatchError", i, results[i].Err)
		}
		if be.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("item %d status = %d, want 429", i, be.StatusCode)
		}
		if be.RetryAfter < time.Second {
			t.Fatalf("item %d RetryAfter = %v, want >= 1s at 0.5/sec", i, be.RetryAfter)
		}
	}
}

// TestClientRetriesThrottledBatchItems is the SDK regression test for
// partial-throttle retries: only the 429 items are resubmitted, after
// waiting out the largest per-item Retry-After hint; minted handles are
// never sent twice. With retries disabled the hint surfaces on the
// BatchError instead.
func TestClientRetriesThrottledBatchItems(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	var sizes []int
	okJob := func(n int) string {
		return fmt.Sprintf(`{"job":{"handle":"h-%d","clients":1,"id":"job-%d","kind":"toy_sum","state":"running","progress":{"done":0,"total":1}}}`, n, n)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode batch request: %v", err)
		}
		mu.Lock()
		sizes = append(sizes, len(req.Jobs))
		mu.Unlock()
		var body string
		if calls.Add(1) == 1 {
			// First attempt: item 0 minted, item 1 throttled with a hint.
			body = `{"results":[` + okJob(1) + `,{"error":"submission rate limit exceeded","code":429,"retry_after":1}]}`
		} else {
			// Retry carries only the throttled item.
			body = `{"results":[` + okJob(2) + `]}`
		}
		//goclint:allow errdrop -- test stub; a failed write fails the test downstream
		_, _ = w.Write([]byte(body))
	}))
	defer stub.Close()

	ctx := context.Background()
	items := []client.BatchItem{
		{Kind: "toy_sum", Seed: 1, Spec: toySpec{N: 1}},
		{Kind: "toy_sum", Seed: 2, Spec: toySpec{N: 2}},
	}
	results, err := client.New(stub.URL).SubmitBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Handle == nil || results[0].Handle.ID() != "h-1" {
		t.Fatalf("item 0 = %+v, want handle h-1 from the first attempt", results[0])
	}
	if results[1].Handle == nil || results[1].Handle.ID() != "h-2" {
		t.Fatalf("item 1 = %+v, want handle h-2 from the retry", results[1])
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", calls.Load())
	}
	mu.Lock()
	gotSizes := append([]int(nil), sizes...)
	mu.Unlock()
	if len(gotSizes) != 2 || gotSizes[0] != 2 || gotSizes[1] != 1 {
		t.Fatalf("attempt sizes = %v, want [2 1] (retry resubmits only the throttled item)", gotSizes)
	}

	// Retries disabled: the partial throttle surfaces as-is, hint attached.
	calls.Store(0)
	results, err = client.New(stub.URL, client.WithRetryLimit(0)).SubmitBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	var be *client.BatchError
	if !errors.As(results[1].Err, &be) || be.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("retry-disabled item 1 = %+v, want a 429 BatchError", results[1].Err)
	}
	if be.RetryAfter != time.Second {
		t.Fatalf("retry-disabled RetryAfter = %v, want 1s", be.RetryAfter)
	}
	if calls.Load() != 1 {
		t.Fatalf("retry-disabled client made %d calls, want 1", calls.Load())
	}
}

// TestPriorityClassValidationAndCaching: unknown classes 422 with a
// JSON-pointer to /priority; valid classes submit fine and share cache
// lines with every other priority (priority never enters the cache key).
func TestPriorityClassValidationAndCaching(t *testing.T) {
	base := trafficServer(t, traffic.Config{})
	ctx := context.Background()
	c := client.New(base)

	_, err := c.Submit(ctx, "toy_sum", 9, toySpec{N: 2}, client.WithPriority("urgent"))
	apiErr := apiStatus(t, err)
	if apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown priority: %v, want 422", err)
	}
	if !strings.Contains(apiErr.Message, "envelope at /priority: ") {
		t.Fatalf("422 message %q does not point at the envelope's /priority", apiErr.Message)
	}

	high, err := c.Submit(ctx, "toy_sum", 9, toySpec{N: 2}, client.WithPriority("high"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := high.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Same spec and seed at a different priority is the same computation.
	low, err := c.Submit(ctx, "toy_sum", 9, toySpec{N: 2}, client.WithPriority("low"))
	if err != nil {
		t.Fatal(err)
	}
	if !low.Submitted.Cached {
		t.Fatal("priority leaked into the cache key: identical spec+seed recomputed")
	}

	// Batch items carry priority too, with per-item validation.
	results, err := c.SubmitBatch(ctx, []client.BatchItem{
		{Kind: "toy_sum", Seed: 9, Spec: toySpec{N: 2}, Priority: "high"},
		{Kind: "toy_sum", Seed: 9, Spec: toySpec{N: 2}, Priority: "bogus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("valid batch item: %v", results[0].Err)
	}
	var be *client.BatchError
	if !errors.As(results[1].Err, &be) || be.StatusCode != http.StatusUnprocessableEntity || be.Path != "/priority" {
		t.Fatalf("bad-priority batch item: %+v", results[1].Err)
	}
}
