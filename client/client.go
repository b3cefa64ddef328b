// Package client is the typed Go SDK for the gocserve v2 job API: introspect
// the versioned spec catalog, submit self-describing spec envelopes (singly
// or batched), watch progress as a live stream, fetch deterministic results,
// and release per-client job handles.
//
// A Client is cheap and safe for concurrent use. Spec and result types are
// the facade's aliases (gameofcoins.EquilibriumSweep, …), so external
// callers never import internal packages. The minimal session:
//
//	c := client.New("http://localhost:8372")
//	h, err := c.SubmitEquilibriumSweep(ctx, gameofcoins.EquilibriumSweep{
//		Gen: gameofcoins.GenSpec{Miners: 5, Coins: 2}, Games: 200,
//	}, 7)
//	st, err := h.Wait(ctx)           // streams progress under the hood
//	var res gameofcoins.EquilibriumSweepResult
//	err = h.Result(ctx, &res)
//	_ = h.Release(ctx)               // drop this client's claim on the job
//
// Spec kinds are versioned server-side: a bare kind runs the latest
// registered version, and client.AtVersion(n) pins an exact one —
//
//	h, err := c.Submit(ctx, "learn_sweep", 7, spec, client.AtVersion(1))
//
// Catalog fetches every kind@version with its JSON-Schema (what the server
// will 422 against) and the catalog fingerprint identifying the accepted
// wire surface; SubmitBatch sends up to server.MaxBatchJobs envelopes in one
// round-trip and returns per-item handles or per-item errors.
//
// Results are also reachable before the aggregate exists: ResultRange
// fetches any fully-computed span of per-task result documents mid-run, and
// StreamResult delivers every per-task document in order as it completes —
// validated against the "task" $def of the kind's result schema from the
// catalog — then returns the terminal status:
//
//	st, err := h.StreamResult(ctx, func(task int, doc json.RawMessage) error {
//		fmt.Printf("task %d: %s\n", task, doc)
//		return nil
//	})
//
// The fingerprint is also a submission guard: client.WithFingerprint(fp)
// pins every request to a captured catalog, and a server whose spec surface
// has drifted refuses pinned submissions with 409. Nothing else changes
// client-side when the server runs a distributed fleet — remote gocworker
// processes (started with `gocworker -coordinator URL`) make jobs finish
// faster, and determinism keeps the result bytes identical to a
// single-machine run, so handles, caching, and Watch behave exactly as
// documented here.
//
// Handles reference-count the server-side job: identical submissions from
// several clients share one computation, and Release drops only the caller's
// interest — the job is canceled only when its last handle is released.
//
// Against a server running with persistence (gocserve -data DIR), results
// and handles survive server restarts: a handle minted before a restart
// still resolves afterwards, a finished job's result is served from the
// rehydrated cache byte-identically, and a job that was mid-run is
// resubmitted server-side under its original seed. Watch rides restarts out
// on its own: a stream that drops mid-job reconnects with backoff and the
// standard Last-Event-ID header instead of closing its channel, so Wait and
// Watch simply see the job running again.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
)

// Client talks to one gocserve instance.
type Client struct {
	base    string
	hc      *http.Client
	fp      string
	key     string
	retries int
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts, proxies,
// test transports). The default is http.DefaultClient, which suits the SDK's
// long-lived Watch streams (no client-side timeout).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithFingerprint pins every request to a catalog fingerprint (as returned
// by Catalog). A server whose spec surface has drifted — upgraded in place,
// or a different replica behind the same address — refuses pinned
// submissions with 409 instead of resolving kinds against a catalog the
// client never saw. Workers joining the fleet (gocworker) make the same
// assertion automatically.
func WithFingerprint(fp string) Option {
	return func(c *Client) { c.fp = fp }
}

// WithAPIKey authenticates every request with an API key ("Authorization:
// Bearer <key>"). Required against a gocserve running with -keys; a server
// without a keyring ignores it.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.key = key }
}

// WithRetryLimit caps how many times a rate-limited (429) request is retried
// before the APIError surfaces to the caller. The default is
// DefaultRetryLimit; 0 disables retries entirely, so every 429 is returned
// immediately — what a load generator probing the limiter wants.
func WithRetryLimit(n int) Option {
	return func(c *Client) { c.retries = n }
}

// DefaultRetryLimit is how many times a 429-rejected request is retried
// (waiting out the server's Retry-After each time) before giving up.
const DefaultRetryLimit = 4

// Rate-limit retry pacing: the wait is the server's Retry-After when given,
// otherwise an exponential backoff from retryBackoffMin, capped at
// retryWaitMax so a misconfigured server cannot park a client forever.
const (
	retryBackoffMin = 250 * time.Millisecond
	retryWaitMax    = 5 * time.Second
)

// New returns a client for the gocserve instance at baseURL
// (e.g. "http://localhost:8372").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient, retries: DefaultRetryLimit}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a non-2xx server response.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint on 429 responses (zero
	// when absent): how long until the rate limiter will admit the client's
	// next submission.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.StatusCode)
}

// do runs one JSON request. in (if non-nil) is the request body; out (if
// non-nil) receives the decoded response. A 429 is retried up to the
// client's retry limit, waiting out the server's Retry-After (or a capped
// exponential backoff when the hint is missing) between attempts — a 429
// means the submission was never admitted, so retrying any method is safe.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		body = b
	}
	backoff := retryBackoffMin
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.fp != "" {
			req.Header.Set(server.FingerprintHeader, c.fp)
		}
		if c.key != "" {
			req.Header.Set("Authorization", "Bearer "+c.key)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			apiErr := decodeAPIError(resp)
			resp.Body.Close()
			wait := backoff
			var ae *APIError
			if errors.As(apiErr, &ae) && ae.RetryAfter > wait {
				wait = ae.RetryAfter
			}
			if wait > retryWaitMax {
				wait = retryWaitMax
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff *= 2; backoff > retryWaitMax {
				backoff = retryWaitMax
			}
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			err := decodeAPIError(resp)
			resp.Body.Close()
			return err
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				resp.Body.Close()
				return fmt.Errorf("client: decode response: %w", err)
			}
		}
		resp.Body.Close()
		return nil
	}
}

func decodeAPIError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		e.Error = resp.Status
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: e.Error}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// SpecKinds lists the bare spec kinds the server's registry accepts.
func (c *Client) SpecKinds(ctx context.Context) ([]string, error) {
	var out struct {
		Kinds []string `json:"kinds"`
	}
	if err := c.do(ctx, http.MethodGet, "/v2/specs", nil, &out); err != nil {
		return nil, err
	}
	return out.Kinds, nil
}

// Catalog is the server's spec catalog: every registered kind@version with
// its schema, plus the catalog fingerprint identifying the accepted wire
// surface as a whole.
type Catalog struct {
	Fingerprint string                `json:"fingerprint"`
	Specs       []engine.CatalogEntry `json:"specs"`
}

// Catalog fetches the full spec catalog from GET /v2/specs: kinds,
// versions, latest/deprecated flags, and per-version JSON-Schemas clients
// can validate against before submitting.
func (c *Client) Catalog(ctx context.Context) (Catalog, error) {
	var out Catalog
	err := c.do(ctx, http.MethodGet, "/v2/specs", nil, &out)
	return out, err
}

// Spec fetches one catalog entry from GET /v2/specs/{kind}: a bare kind
// names its latest version, "kind@vN" pins one.
func (c *Client) Spec(ctx context.Context, wire string) (engine.CatalogEntry, error) {
	var out engine.CatalogEntry
	err := c.do(ctx, http.MethodGet, "/v2/specs/"+wire, nil, &out)
	return out, err
}

// RegisterGame registers a game with POST /v2/games and returns its
// content-addressed ID, which LearnSweep specs may reference via GameID.
func (c *Client) RegisterGame(ctx context.Context, g *core.Game) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(ctx, http.MethodPost, "/v2/games", g, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Handle is one client's claim on a server-side job. It is returned by the
// Submit family and released with Release.
type Handle struct {
	c  *Client
	id string
	// Submitted is the handle's submission-time snapshot: the underlying
	// job's ID and status, the live-handle count, and whether the submission
	// was answered from the server's result cache.
	Submitted server.JobHandle
}

// SubmitOption configures one submission (Submit, SubmitSpec, the typed
// helpers, and batch items via BatchItem.Version).
type SubmitOption func(*submitOptions)

type submitOptions struct {
	version  int
	priority string
}

// AtVersion pins the submission to an exact registered spec version: the
// envelope goes out as "kind@vN" instead of the bare kind, so the job runs
// under that version's wire format even after the server registers a newer
// one. Pinning version 1 shares cache lines with bare-kind submissions —
// v1 is the bare wire format.
func AtVersion(version int) SubmitOption {
	return func(o *submitOptions) { o.version = version }
}

// WithPriority sets the submission's admission-control priority class:
// "low", "normal", or "high". Priority biases how fast the job's tasks are
// scheduled under contention — never what they compute or whether they cache
// — and an unknown class is rejected server-side with 422. Unset means
// "normal".
func WithPriority(priority string) SubmitOption {
	return func(o *submitOptions) { o.priority = priority }
}

// versionedWire renders the wire name for a (kind, pinned version): the
// bare kind when no pin is requested, "kind@vN" otherwise.
func versionedWire(kind string, version int) string {
	if version <= 0 {
		return kind
	}
	return engine.PinnedKind(kind, version)
}

// applyOpts folds submit options into their struct form.
func applyOpts(opts []SubmitOption) submitOptions {
	var o submitOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Submit sends a raw envelope: kind names a registered spec kind — the
// server resolves it to the kind's latest version unless AtVersion pins one
// — seed roots the job's deterministic randomness, and spec is any
// JSON-encodable value matching the resolved version's spec document
// (typically the engine spec struct itself; the server validates it against
// the version's published schema and rejects shape mismatches with a 422
// APIError naming the offending field). Prefer the typed Submit* helpers
// for the built-in sweeps.
func (c *Client) Submit(ctx context.Context, kind string, seed uint64, spec any, opts ...SubmitOption) (*Handle, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encode %s spec: %w", kind, err)
	}
	o := applyOpts(opts)
	env := engine.JobEnvelope{Kind: versionedWire(kind, o.version), Seed: seed, Spec: raw, Priority: o.priority}
	var jh server.JobHandle
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", env, &jh); err != nil {
		return nil, err
	}
	return &Handle{c: c, id: jh.Handle, Submitted: jh}, nil
}

// SubmitSpec submits a typed engine spec under its own Kind.
func (c *Client) SubmitSpec(ctx context.Context, spec engine.Spec, seed uint64, opts ...SubmitOption) (*Handle, error) {
	return c.Submit(ctx, spec.Kind(), seed, spec, opts...)
}

// SubmitLearnSweep submits a better-response learning sweep.
func (c *Client) SubmitLearnSweep(ctx context.Context, spec engine.LearnSweep, seed uint64, opts ...SubmitOption) (*Handle, error) {
	return c.SubmitSpec(ctx, spec, seed, opts...)
}

// SubmitDesignSweep submits a Section-5 reward-design sweep.
func (c *Client) SubmitDesignSweep(ctx context.Context, spec engine.DesignSweep, seed uint64, opts ...SubmitOption) (*Handle, error) {
	return c.SubmitSpec(ctx, spec, seed, opts...)
}

// SubmitReplaySweep submits a market-replay sweep.
func (c *Client) SubmitReplaySweep(ctx context.Context, spec engine.ReplaySweep, seed uint64, opts ...SubmitOption) (*Handle, error) {
	return c.SubmitSpec(ctx, spec, seed, opts...)
}

// SubmitEquilibriumSweep submits an equilibrium-census sweep.
func (c *Client) SubmitEquilibriumSweep(ctx context.Context, spec engine.EquilibriumSweep, seed uint64, opts ...SubmitOption) (*Handle, error) {
	return c.SubmitSpec(ctx, spec, seed, opts...)
}

// BatchItem is one envelope of a SubmitBatch call.
type BatchItem struct {
	// Kind names a registered spec kind (bare; set Version to pin).
	Kind string
	// Seed roots the item's deterministic randomness.
	Seed uint64
	// Spec is any JSON-encodable value matching the kind's spec document.
	Spec any
	// Version pins an exact registered spec version (0 = latest).
	Version int
	// Priority is the item's admission-control class ("low", "normal",
	// "high"; empty = normal), exactly like WithPriority on Submit.
	Priority string
}

// BatchError is one item's failure inside an otherwise delivered batch: the
// status code and message the single-submit path would have produced, plus
// the JSON-pointer path into the item's spec document for 422 schema
// mismatches.
type BatchError struct {
	StatusCode int
	Message    string
	Path       string
	// RetryAfter is the server's per-item backoff hint on 429 items (zero
	// otherwise): how long until the rate limiter will admit this client's
	// next submission. SubmitBatch has already waited it out up to the
	// client's retry limit by the time this error surfaces.
	RetryAfter time.Duration
}

// Error implements error.
func (e *BatchError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("server: %s (HTTP %d, at %s)", e.Message, e.StatusCode, e.Path)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.StatusCode)
}

// BatchResult is one item's outcome, index-aligned with the submitted
// items: a live Handle (exactly as if the item had been submitted alone) or
// a *BatchError.
type BatchResult struct {
	Handle *Handle
	Err    error
}

// SubmitBatch submits up to server.MaxBatchJobs envelopes in one round-trip
// (POST /v2/batch). Items are processed server-side in order through the
// same dedupe/refcount path as single submissions: identical items attach
// to one job (each with its own handle), and a failing item costs only its
// own slot — inspect each BatchResult. The returned error covers the batch
// call itself (encoding, transport, a rejected request); per-item failures
// live in the results.
//
// The server admits batch items individually against the client's rate
// limit, so a large batch can be partially throttled: some items minted,
// the rest 429 with per-item Retry-After hints. SubmitBatch honors those
// hints the way Submit honors the header — it waits out the longest hint
// and resubmits only the throttled items, up to the client's retry limit
// (WithRetryLimit) — so by the time results return, a 429 BatchError means
// the retry budget is spent. Handles already minted are never resubmitted.
func (c *Client) SubmitBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	envs := make([]engine.JobEnvelope, len(items))
	for i, it := range items {
		raw, err := json.Marshal(it.Spec)
		if err != nil {
			return nil, fmt.Errorf("client: encode %s spec (item %d): %w", it.Kind, i, err)
		}
		envs[i] = engine.JobEnvelope{Kind: versionedWire(it.Kind, it.Version), Seed: it.Seed, Spec: raw, Priority: it.Priority}
	}
	results := make([]BatchResult, len(items))
	pending := make([]int, len(items))
	for i := range items {
		pending[i] = i
	}
	backoff := retryBackoffMin
	for attempt := 0; ; attempt++ {
		sub := make([]engine.JobEnvelope, len(pending))
		for j, i := range pending {
			sub[j] = envs[i]
		}
		var out struct {
			Results []server.BatchResult `json:"results"`
		}
		if err := c.do(ctx, http.MethodPost, "/v2/batch", server.BatchRequest{Jobs: sub}, &out); err != nil {
			return nil, err
		}
		if len(out.Results) != len(sub) {
			return nil, fmt.Errorf("client: batch returned %d results for %d items", len(out.Results), len(sub))
		}
		var throttled []int
		var wait time.Duration
		for j, r := range out.Results {
			i := pending[j]
			if r.Job != nil {
				results[i] = BatchResult{Handle: &Handle{c: c, id: r.Job.Handle, Submitted: *r.Job}}
				continue
			}
			be := &BatchError{StatusCode: r.Code, Message: r.Error, Path: r.Path,
				RetryAfter: time.Duration(r.RetryAfter) * time.Second}
			results[i] = BatchResult{Err: be}
			if r.Code == http.StatusTooManyRequests {
				throttled = append(throttled, i)
				if be.RetryAfter > wait {
					wait = be.RetryAfter
				}
			}
		}
		if len(throttled) == 0 || attempt >= c.retries {
			return results, nil
		}
		if wait < backoff {
			wait = backoff
		}
		if wait > retryWaitMax {
			wait = retryWaitMax
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			// Hand back what was minted so the caller can release it; the
			// still-throttled slots keep their 429 errors.
			return results, ctx.Err()
		}
		if backoff *= 2; backoff > retryWaitMax {
			backoff = retryWaitMax
		}
		pending = throttled
	}
}

// ID returns the server-side handle identifier.
func (h *Handle) ID() string { return h.id }

// Status polls the handle's job status once.
func (h *Handle) Status(ctx context.Context) (server.JobHandle, error) {
	var jh server.JobHandle
	err := h.c.do(ctx, http.MethodGet, "/v2/jobs/"+h.id, nil, &jh)
	return jh, err
}

// Watch reconnection backoff: starts small (a restarting gocserve is
// usually back within a second), doubles per failed attempt, and caps so a
// long outage polls gently rather than hammering.
const (
	watchBackoffMin = 100 * time.Millisecond
	watchBackoffMax = 2 * time.Second
)

// Watch subscribes to the job's SSE event stream. The channel carries status
// snapshots — progress updates coalesced to the latest, then the terminal
// status — and closes after the terminal status is delivered. Canceling ctx
// tears the stream down.
//
// A stream that drops mid-job (server restart, proxy idle timeout) does NOT
// close the channel: Watch reconnects with exponential backoff, passing the
// standard Last-Event-ID header so the server suppresses progress already
// seen. Against a persistent server (gocserve -data) the handle survives
// the restart and the watch simply resumes — an interrupted job is
// resubmitted server-side and watched to its (deterministic) end. The watch
// gives up and closes the channel only when ctx is canceled or the handle
// itself is gone (404/410 — evicted, or a store-less restart forgot it);
// Wait then reports the stream as cut.
func (h *Handle) Watch(ctx context.Context) (<-chan engine.Status, error) {
	resp, err := h.connectEvents(ctx, "")
	if err != nil {
		return nil, err
	}
	ch := make(chan engine.Status)
	go func() {
		defer close(ch)
		body := resp.Body
		var lastEventID string
		backoff := watchBackoffMin
		for {
			terminal, delivered := streamEvents(ctx, body, ch, &lastEventID)
			body.Close()
			if terminal || ctx.Err() != nil {
				return
			}
			if delivered {
				// The connection was healthy before it dropped; restart the
				// backoff clock instead of compounding across reconnects.
				backoff = watchBackoffMin
			}
			var retryAfter time.Duration
			for {
				// A 429 from the previous attempt overrides the backoff with
				// the server's own Retry-After, so a rate-limited reconnect
				// waits the limiter out instead of burning attempts.
				wait := backoff
				if retryAfter > wait {
					wait = retryAfter
				}
				if wait > retryWaitMax {
					wait = retryWaitMax
				}
				retryAfter = 0
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
				if backoff *= 2; backoff > watchBackoffMax {
					backoff = watchBackoffMax
				}
				next, err := h.connectEvents(ctx, lastEventID)
				if err != nil {
					var apiErr *APIError
					if errors.As(err, &apiErr) {
						if apiErr.StatusCode == http.StatusNotFound || apiErr.StatusCode == http.StatusGone {
							// The handle is gone server-side; no retry revives it.
							return
						}
						retryAfter = apiErr.RetryAfter
					}
					if ctx.Err() != nil {
						return
					}
					continue // transport error, 5xx, or 429: retry with the wait above
				}
				body = next.Body
				break
			}
		}
	}()
	return ch, nil
}

// connectEvents opens one SSE connection to the handle's event stream.
func (h *Handle) connectEvents(ctx context.Context, lastEventID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.c.base+"/v2/jobs/"+h.id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if h.c.key != "" {
		req.Header.Set("Authorization", "Bearer "+h.c.key)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := h.c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

// streamEvents consumes one SSE connection, forwarding status snapshots to
// ch and recording the last seen event ID for reconnects. Only "progress"
// and "end" events carry status documents; other event types — the server's
// "result-range" notifications — advance the event ID (so a reconnect
// resumes ranges correctly) but are not statuses and are never delivered
// here. It returns whether the terminal status was delivered (the stream is
// complete) and whether anything was delivered at all (the connection was
// healthy).
func streamEvents(ctx context.Context, body io.Reader, ch chan<- engine.Status, lastEventID *string) (terminal, delivered bool) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data, event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line terminates one SSE event
			if data == "" || (event != "progress" && event != "end") {
				data, event = "", ""
				continue
			}
			var st engine.Status
			if err := json.Unmarshal([]byte(data), &st); err == nil {
				select {
				case ch <- st:
					delivered = true
				case <-ctx.Done():
					return false, delivered
				}
				if st.State.Terminal() {
					return true, true
				}
			}
			data, event = "", ""
		case strings.HasPrefix(line, "id:"):
			*lastEventID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	return false, delivered
}

// Wait streams the job via Watch until it reaches a terminal state and
// returns the terminal status. A failed or canceled job is not an error
// here — inspect the returned State; errors mean the wait itself broke
// (transport failure, canceled ctx, stream cut before a terminal status).
func (h *Handle) Wait(ctx context.Context) (engine.Status, error) {
	ch, err := h.Watch(ctx)
	if err != nil {
		return engine.Status{}, err
	}
	var last engine.Status
	for st := range ch {
		last = st
	}
	if !last.State.Terminal() {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		return last, fmt.Errorf("client: event stream ended before job %s finished", last.ID)
	}
	return last, nil
}

// Result fetches the finished job's result into out (any JSON-decodable
// value; the matching engine *Result struct preserves typing). It returns an
// *APIError with StatusCode 409 while the job is still running and 410 if
// the job failed or was canceled.
func (h *Handle) Result(ctx context.Context, out any) error {
	var wrapper struct {
		Result json.RawMessage `json:"result"`
	}
	if err := h.c.do(ctx, http.MethodGet, "/v2/jobs/"+h.id+"/result", nil, &wrapper); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(wrapper.Result, out); err != nil {
		return fmt.Errorf("client: decode result: %w", err)
	}
	return nil
}

// ResultRange fetches the per-task result documents of tasks [lo, hi) from
// the job's result ledger (GET ?range=lo-hi). It works mid-run: any span the
// server has fully computed is served before the job finishes. The returned
// *APIError carries 400 for an out-of-bounds span, 409 while some task in
// the span is still computing (retry once the watermark passes hi), and 410
// for jobs without per-task documents (non-streamable kinds, or a job
// restored already-finished from a previous server life).
func (h *Handle) ResultRange(ctx context.Context, lo, hi int) ([]json.RawMessage, error) {
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	path := fmt.Sprintf("/v2/jobs/%s/result?range=%d-%d", h.id, lo, hi)
	if err := h.c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// StreamResult streams the job's per-task result documents in task order as
// they complete, calling fn for each, and returns the job's terminal status
// once every task has been delivered. It rides the SSE stream's watermark:
// each time the contiguous completed prefix advances, the newly completed
// span is fetched with ResultRange and handed to fn task by task — so a
// consumer sees every result exactly once, in order, long before the
// aggregate exists, and a stream cut by a server restart resumes where it
// left off (persisted ranges survive the restart; nothing is re-delivered).
//
// Every document is validated against the "task" $def of the kind's result
// schema from the server's catalog before fn sees it; a kind that publishes
// no result schema (or no "task" def) streams unvalidated. fn returning an
// error aborts the stream and returns that error.
func (h *Handle) StreamResult(ctx context.Context, fn func(task int, doc json.RawMessage) error) (engine.Status, error) {
	return h.StreamResultFrom(ctx, 0, fn)
}

// StreamResultFrom is StreamResult resuming at task index `from`: tasks
// below it are assumed already delivered (a previous stream the caller
// persisted before being cut) and are never re-fetched or re-delivered — fn
// sees exactly the tasks [from, total), in order. The resume point composes
// with the server's own persistence: after a restart the persisted prefix
// prefills the new job's ledger, so the watermark passes `from` as soon as
// the uncovered suffix computes.
func (h *Handle) StreamResultFrom(ctx context.Context, from int, fn func(task int, doc json.RawMessage) error) (engine.Status, error) {
	entry, err := h.c.Spec(ctx, h.Submitted.Kind)
	if err != nil {
		return engine.Status{}, fmt.Errorf("client: fetch result schema: %w", err)
	}
	schema := entry.ResultSchema
	// Watch on a derived context so an early return (fn error, validation
	// failure) releases the stream goroutine instead of stranding it.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := h.Watch(wctx)
	if err != nil {
		return engine.Status{}, err
	}
	next := from
	var last engine.Status
	for st := range ch {
		last = st
		wm := st.Progress.Watermark
		if wm <= next {
			continue
		}
		docs, err := h.ResultRange(ctx, next, wm)
		if err != nil {
			// A restart can briefly rewind the servable prefix below an
			// already-announced watermark (409); the next snapshots catch it
			// back up. Anything else is fatal for the stream.
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
				continue
			}
			return last, err
		}
		for k, doc := range docs {
			if err := schema.ValidateDef("task", doc); err != nil {
				return last, fmt.Errorf("client: task %d result: %w", next+k, err)
			}
			if err := fn(next+k, doc); err != nil {
				return last, err
			}
		}
		next = wm
	}
	if !last.State.Terminal() {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		return last, fmt.Errorf("client: event stream ended before job %s finished", last.ID)
	}
	if last.State == engine.StateDone && next < last.Progress.Total {
		return last, fmt.Errorf("client: job %s finished but only tasks [0,%d) of %d streamed", last.ID, next, last.Progress.Total)
	}
	return last, nil
}

// Release drops this client's claim on the job. The server cancels the
// underlying job only when its last handle is released; other clients
// attached to the same deduplicated job are unaffected.
func (h *Handle) Release(ctx context.Context) error {
	return h.c.do(ctx, http.MethodDelete, "/v2/jobs/"+h.id, nil, nil)
}
