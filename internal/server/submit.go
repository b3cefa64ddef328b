package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
)

// resolveGame is the engine.GameResolver hook the registry path uses: spec
// kinds that reference games by ID (engine.GameRefSpec) are resolved against
// the server's registered games without the registry knowing the server.
func (s *Server) resolveGame(id string) (*core.Game, error) {
	s.mu.Lock()
	g, ok := s.games[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("unknown game %q", id)
	}
	return g, nil
}

// submitEnvelope is the single path every job submission takes: decode
// through the spec registry, resolve game references, dedupe against the
// result cache, submit. It returns the finished JobHandle: a per-client
// handle minted *inside the dedup critical section* — minting later would
// let a concurrent last-handle DELETE cancel the job between the cache
// lookup and the refcount increment — with the (possibly shared) job's
// status, Cached set when an existing cache entry answered the submission.
//
// client is the authenticated identity the submission runs as ("" when the
// server is open); it attributes the job in the engine's quota accounting and
// owns the minted handle. The envelope's priority class becomes the job's
// fair-share urgency weight. Neither enters the cache key: a cache hit
// attaches the client to the job as-is, keeping the original submitter's
// attribution and priority (dedup shares the computation, not the claim).
func (s *Server) submitEnvelope(env engine.JobEnvelope, client string) (JobHandle, error) {
	class, err := parsePriority(env.Priority)
	if err != nil {
		return JobHandle{}, err
	}
	// ResolveEnvelope is the whole registry path: version resolution ("kind"
	// → latest, "kind@vN" pinned), schema validation (a mismatch surfaces as
	// a *engine.SchemaError, which handlers map to 422 with the error's
	// JSON-pointer path), then the version's decoder.
	rs, err := engine.ResolveEnvelope(env)
	if err != nil {
		return JobHandle{}, err
	}
	spec, err := engine.ResolveSpec(rs.Spec, s.resolveGame)
	if err != nil {
		return JobHandle{}, err
	}
	canonical, err := engine.CanonicalSpecJSON(spec)
	if err != nil {
		// A spec that decoded from the wire but cannot re-encode is the
		// server's problem (a broken Marshaler, non-finite floats built by a
		// decoder), not the client's: surface it as a 500, not a 400.
		return JobHandle{}, internalError{err}
	}
	// The key hashes the *versioned* wire kind — bare for v1, so every
	// pre-versioning cache entry and data directory stays valid, and two
	// versions of one kind can never share a cache line.
	key := engine.CacheKeyJSON(rs.WireKind(), canonical, env.Seed)
	// Check-and-reserve is one critical section: concurrent identical
	// submissions either all see the same cached job or exactly one of them
	// submits and publishes the key the others then hit. (Lock order is
	// server.mu → manager/job mutexes; the manager never calls back into
	// the server, so this cannot deadlock.)
	s.mu.Lock()
	if cachedID, hit := s.cache[key]; hit {
		// Point the client at the job already computing (or holding) this
		// result — identical submissions attach to the same job, whether it
		// is still running or long done, so duplicates are never recomputed
		// and the job table doesn't grow. A dangling entry (job evicted,
		// failed, or canceled) falls through to a fresh submission.
		if job, err := s.manager.Get(cachedID); err == nil {
			// Read Status before Result: if the snapshot is non-terminal the
			// job is servable regardless of what happens next, and if it is
			// terminal the result is already set (finish() stores both under
			// one lock) — the reverse order could misread a job finishing
			// between the two calls as failed and recompute it.
			st := job.Status()
			if _, hasResult := job.Result(); hasResult || !st.State.Terminal() {
				jh := s.mintHandleLocked(job.ID(), client)
				s.mu.Unlock()
				jh.Status = job.Status()
				jh.Cached = true
				return jh, nil
			}
		}
		delete(s.cache, key)
	}
	// Every envelope submission is distributable: the canonical document and
	// versioned wire kind are the job's wire identity, and remote workers
	// resolve the pinned kind through their (fingerprint-verified) registry.
	// Client and weight ride along for quota accounting and priority — pure
	// scheduling inputs, invisible to the job's result and cache identity.
	job, err := s.manager.SubmitJobOpts("", spec, env.Seed, engine.SubmitOptions{
		Remote: &engine.RemoteInfo{
			WireKind: engine.PinnedKind(rs.Kind, rs.Version),
			Spec:     canonical,
			Seed:     env.Seed,
		},
		Client: client,
		Weight: class.Weight(),
	})
	if err != nil {
		s.mu.Unlock()
		return JobHandle{}, err
	}
	rec := store.JobRecord{
		ID:      job.ID(),
		Key:     key,
		Kind:    rs.Kind,
		Version: rs.Version,
		Seed:    env.Seed,
		Tasks:   spec.Tasks(),
		Spec:    canonical,
		State:   store.JobSubmitted,
	}
	// Persistence of the job table is best-effort: a store hiccup costs
	// durability of this record, not the submission (the job still runs).
	// Enqueued before the mint below so the log always carries a job record
	// ahead of the handle op that references it — what the store's garbage
	// collection keys on.
	s.persistJob(rec)
	// Publish the key before releasing the lock so no identical submission
	// can slip between submit and publish; retract it if the job fails or
	// is canceled.
	s.cache[key] = job.ID()
	jh := s.mintHandleLocked(job.ID(), client)
	s.pruneCacheLocked()
	s.mu.Unlock()
	s.watchJob(watchStart{job: job, rec: rec, spec: spec})
	jh.Status = job.Status()
	return jh, nil
}

// internalError marks a submission failure that is the server's fault —
// encoding, storage — rather than the client's. Handlers map it to 500
// where a plain error means 400.
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// submitFailure classifies a submitEnvelope failure into the status code,
// message and JSON-pointer path that both a single submission's error
// response and a batch item carry — one classifier, so the two surfaces can
// never diverge. Schema mismatches — the document's shape diverges from the
// resolved version's published schema — are 422 (the request was
// well-formed JSON, the entity just doesn't match the catalog contract) and
// carry the path into the spec document; other client errors — unknown
// kind, malformed or invalid spec, unknown game — are 400; internal
// encoding failures are 500.
func submitFailure(err error) BatchResult {
	f := BatchResult{Error: err.Error(), Code: http.StatusBadRequest}
	var se *engine.SchemaError
	if errors.As(err, &se) {
		f.Code = http.StatusUnprocessableEntity
		f.Path = se.Path
	}
	var ie internalError
	if errors.As(err, &ie) {
		f.Code = http.StatusInternalServerError
	}
	return f
}

// retractCacheLocked removes every cache entry pointing at a job that is
// about to be canceled, so no concurrent identical submission can attach to
// it. A finished job keeps its entries — its cached result stays servable
// and Cancel is a no-op on it. Callers hold s.mu.
func (s *Server) retractCacheLocked(job *engine.Job) {
	if _, done := job.Result(); done {
		return
	}
	for k, id := range s.cache {
		if id == job.ID() {
			delete(s.cache, k)
		}
	}
}

// FingerprintHeader optionally pins a /v2 submission to a catalog
// fingerprint: a client that captured the catalog once can assert every
// later submission still targets the same spec surface, and a mismatch
// (server upgraded, client pointed at a different replica) is refused with
// 409 instead of silently resolving kinds against a drifted catalog.
const FingerprintHeader = "X-Catalog-Fingerprint"

// checkFingerprint enforces FingerprintHeader when present; it reports
// false after writing the 409.
func (s *Server) checkFingerprint(w http.ResponseWriter, r *http.Request) bool {
	fp := r.Header.Get(FingerprintHeader)
	if fp == "" || fp == engine.CatalogFingerprint() {
		return true
	}
	writeJSON(w, http.StatusConflict, map[string]string{
		"error":       fmt.Sprintf("catalog fingerprint mismatch: client pinned %s, server serves %s", fp, engine.CatalogFingerprint()),
		"fingerprint": engine.CatalogFingerprint(),
	})
	return false
}

func (s *Server) handleCreateJobV2(w http.ResponseWriter, r *http.Request) {
	if !s.checkFingerprint(w, r) {
		return
	}
	var env engine.JobEnvelope
	if !decodeInto(w, r, &env) {
		return
	}
	// Every POST mints a fresh handle, cache hit or not: the handle is this
	// client's claim on the (possibly shared) job, and the refcount is what
	// keeps one client's DELETE from canceling another's work.
	jh, err := s.submitEnvelope(env, clientFrom(r))
	if err != nil {
		f := submitFailure(err)
		writeJSON(w, f.Code, struct {
			Error string `json:"error"`
			Path  string `json:"path,omitempty"`
		}{f.Error, f.Path})
		return
	}
	writeJSON(w, http.StatusCreated, jh)
}

// MaxBatchJobs caps the envelopes one POST /v2/batch request may carry. The
// cap bounds the worst-case work a single request can enqueue (each item is
// its own job, each already bounded by engine.MaxTasksPerJob) without making
// a sweep-of-sweeps multi-round-trip.
const MaxBatchJobs = 256

// BatchRequest is the wire form of POST /v2/batch: up to MaxBatchJobs
// envelopes submitted in one request.
type BatchRequest struct {
	Jobs []engine.JobEnvelope `json:"jobs"`
}

// BatchResult is one item of the POST /v2/batch response, index-aligned with
// the request's jobs array: either the minted handle (exactly what a single
// POST /v2/jobs would have returned) or the item's error with the status
// code the single-submit path would have used — and, for schema mismatches,
// the JSON-pointer path into that item's spec document. Rate-limited items
// (code 429) additionally carry RetryAfter, the per-item analogue of the
// Retry-After header a single throttled submission gets.
type BatchResult struct {
	Job   *JobHandle `json:"job,omitempty"`
	Error string     `json:"error,omitempty"`
	Code  int        `json:"code,omitempty"`
	Path  string     `json:"path,omitempty"`
	// RetryAfter is the throttle backoff hint in whole seconds (ceiling,
	// minimum 1), present only on 429 items: how long until the limiter
	// will have accrued the client's next token.
	RetryAfter int `json:"retry_after,omitempty"`
}

// handleCreateBatch submits a batch of envelopes through the same
// dedupe/refcount path as single submissions, one item at a time in request
// order — so minted handle IDs are ordered like the request, identical
// items within one batch dedupe onto one job (each with its own handle),
// and one bad item costs only its own slot, never the batch. To keep that
// isolation total, items are decoded individually: a malformed envelope (a
// typo'd field, the wrong JSON shape) errors its own slot exactly like an
// unknown kind would, instead of failing the whole request's decode.
func (s *Server) handleCreateBatch(w http.ResponseWriter, r *http.Request) {
	if !s.checkFingerprint(w, r) {
		return
	}
	var req struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if !decodeInto(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one job"))
		return
	}
	if len(req.Jobs) > MaxBatchJobs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d jobs exceeds the cap of %d", len(req.Jobs), MaxBatchJobs))
		return
	}
	client := clientFrom(r)
	results := make([]BatchResult, len(req.Jobs))
	for i, raw := range req.Jobs {
		// Per-item admission: each envelope spends one token, exactly what
		// it would cost submitted alone, so a batch cannot outrun the rate
		// limit by packing. Items past the budget fail only their own slot,
		// with the same Retry-After signal a single 429 carries.
		if retryAfter, admitted := s.traffic.Admit(client); !admitted {
			results[i] = BatchResult{
				Error:      "submission rate limit exceeded",
				Code:       http.StatusTooManyRequests,
				RetryAfter: retryAfterSecs(retryAfter),
			}
			continue
		}
		submitItem := func() (JobHandle, error) {
			var env engine.JobEnvelope
			idec := json.NewDecoder(bytes.NewReader(raw))
			idec.DisallowUnknownFields()
			if err := idec.Decode(&env); err != nil {
				return JobHandle{}, fmt.Errorf("decode job envelope: %w", err)
			}
			return s.submitEnvelope(env, client)
		}
		jh, err := submitItem()
		if err != nil {
			results[i] = submitFailure(err)
			continue
		}
		results[i] = BatchResult{Job: &jh}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// pruneCacheLocked drops cache entries whose job the Manager has evicted.
// The Manager caps tracked jobs (engine.DefaultRetention), so without this
// sweep a steady stream of distinct specs would grow the cache forever
// while its entries dangle. Sweeping only past double the job cap keeps the
// amortized cost per submission O(1). Callers must hold s.mu.
func (s *Server) pruneCacheLocked() {
	if len(s.cache) <= 2*engine.DefaultRetention {
		return
	}
	for k, id := range s.cache {
		if _, err := s.manager.Get(id); err != nil {
			delete(s.cache, k)
		}
	}
}
