// Package server implements the gocserve HTTP JSON API: game registration,
// asynchronous job submission onto the concurrent experiment engine, status
// polling, cancellation, and result retrieval.
//
// Endpoints (all JSON):
//
//	POST   /v2/games            register a game (core.Game wire form) → {id}
//	GET    /v2/games/{id}       fetch a registered game
//	GET    /healthz             liveness probe: build info (server version,
//	                            Go runtime), the catalog fingerprint —
//	                            replicas serving different spec surfaces are
//	                            distinguishable at a glance — and the engine
//	                            scheduler snapshot (workers, active jobs,
//	                            queued/running tasks, steal count)
//
// Job statuses carry the scheduler's per-job view in "progress": alongside
// done/total, "running" counts the job's tasks executing on workers and
// "queued" its tasks still waiting in the run queue, as of the job's last
// completed task.
//
// Jobs use the self-describing envelope form: a job arrives as
// {"kind": ..., "seed": ..., "spec": {...}} and is resolved purely through
// the engine's versioned spec registry (engine.RegisterSpec) — the server
// never switches on job kinds, so new spec types plug in without server
// edits. Kinds are versioned: "kind" resolves to the latest registered
// version, "kind@vN" pins one, and each version's JSON-Schema is served from
// the catalog so clients can validate before submitting. The server itself
// validates every submission against the resolved version's schema and
// rejects shape mismatches with 422 and a JSON-pointer "path" into the spec
// document. POST returns a per-client *handle* (h-N) that reference-counts
// the underlying deduplicated job: DELETE releases one client's interest and
// cancels the job only when the last handle is released.
//
//	GET    /v2/specs                  full spec catalog: every registered
//	                                  kind@version with its schema and latest
//	                                  flag, and the catalog fingerprint
//	GET    /v2/specs/{kind}           one catalog entry ("kind" = latest,
//	                                  "kind@vN" = pinned)
//	POST   /v2/jobs                   submit a JobEnvelope → JobHandle
//	POST   /v2/batch                  submit up to MaxBatchJobs envelopes in
//	                                  one request → per-item handles/errors,
//	                                  in request order, sharing the dedupe/
//	                                  refcount path; rate limits are charged
//	                                  per item (partial throttles 429 only
//	                                  their own slots, with retry_after hints)
//	GET    /v2/jobs/{handle}          poll the handle's job status
//	GET    /v2/jobs/{handle}/result   fetch the finished job's result;
//	                                  ?range=lo-hi serves the per-task result
//	                                  documents of [lo,hi) from the job's
//	                                  result ledger — mid-run, as soon as the
//	                                  span is computed (400 malformed/out of
//	                                  bounds, 409 not yet complete, 410 no
//	                                  ledger); the documents go out verbatim,
//	                                  streamed chunked
//	GET    /v2/jobs/{handle}/events   stream progress + terminal status (SSE:
//	                                  "progress" events, "result-range" events
//	                                  as the result ledger's watermark
//	                                  advances, then one "end"; "id:" carries
//	                                  "done.watermark" and a reconnect's
//	                                  Last-Event-ID suppresses already-seen
//	                                  progress and resumes ranges without a
//	                                  skip or duplicate)
//	DELETE /v2/jobs/{handle}          release the handle; cancels the job
//	                                  only if no other handle remains
//
// The handle table itself is bounded by MaxHandles; past the cap the oldest
// handles are evicted (they 404 afterwards) without canceling their jobs.
//
// Results are cached keyed by (canonical job spec, seed): resubmitting an
// identical spec returns a completed job instantly. The cache is sound
// because every job is a deterministic function of its spec and seed — the
// engine's worker pool cannot perturb results.
//
// Persistence goes through internal/store: every game registration, job
// submission, per-task result span, finished result, and handle
// mint/release is mirrored into a Store (store.File), and NewWithOptions
// rehydrates the whole state on startup — finished jobs reappear as
// servable cached results under their original IDs, and jobs that were
// mid-run when the process stopped are resubmitted under their original
// spec and seed (determinism makes the rerun byte-identical, and persisted
// spans mean only the unfinished suffix recomputes) or, with
// Options.FailInterrupted, marked failed. Without a store (New, or a nil
// Options.Store) persistence is disabled entirely.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"gameofcoins/internal/core"
	"gameofcoins/internal/dist"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// Server is the gocserve HTTP handler. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	manager *engine.Manager
	mux     *http.ServeMux
	store   store.Store         // nil: persistence disabled entirely
	fleet   *dist.Coordinator   // lease-based remote worker coordinator (/dist/*)
	traffic *traffic.Controller // admission control: auth, rate limit, quota policy

	// Store writes go through a single ordered queue drained by one
	// background goroutine: ops are enqueued while s.mu is held — so the
	// log order matches the in-memory mutation order exactly — but the I/O
	// itself (which may compact and fsync the whole log) never runs under
	// s.mu and can never stall a request.
	pmu       sync.Mutex
	pops      []func() error // guarded by pmu
	pkick     chan struct{}
	pstop     chan struct{}
	pdone     chan struct{}
	pstopOnce sync.Once

	// Persist failures are recorded, not dropped: a store write that errors
	// leaves the on-disk log behind memory, which the next restart silently
	// recomputes — invisible unless counted. /healthz surfaces both fields.
	persistFails   atomic.Uint64
	persistLastErr atomic.Value // string: most recent store-write error

	mu        sync.Mutex
	closing   bool                  // guarded by mu; set by Close: suppress terminal records for shutdown-canceled jobs
	games     map[string]*core.Game // guarded by mu
	cache     map[string]string     // guarded by mu; cache key → ID of the job holding the result
	cacheKept int                   // guarded by mu; len(cache) after pruneCacheLocked's last sweep

	// Per-client handles. A handle is one client's reference to a
	// deduplicated job; refs counts live handles per job so releasing a
	// handle cancels the job only when no other client still wants it.
	handles     map[string]handleRec // guarded by mu; handle id → claimed job and owner
	handleOrder []string             // guarded by mu; handle ids in mint order, for eviction
	refs        map[string]int       // guarded by mu; job id → live handle count
	nextHandle  uint64               // guarded by mu
	handlesKept int                  // guarded by mu; len(handleOrder) after pruneHandlesLocked's last sweep

	entryMu     sync.Mutex
	entryBodies map[engine.CatalogEntry][]byte // guarded by entryMu; see specEntryBody
}

// Options configure a Server beyond the worker count.
type Options struct {
	// Store persists games, jobs, results, and handles across restarts
	// (store.OpenFile). nil disables persistence entirely — no mirroring,
	// no extra result copies, which is New's behavior.
	Store store.Store
	// FailInterrupted controls rehydration of jobs that were mid-run when
	// the previous process stopped: false (default) resubmits them under
	// their original ID, spec, and seed — determinism recomputes the
	// identical result — while true marks them failed ("interrupted by
	// server restart") so nothing recomputes without an explicit resubmit.
	FailInterrupted bool
	// Dist tunes the remote-worker coordinator (lease TTL, lease sizing).
	// The zero value selects dist's defaults; the coordinator itself is
	// always on — with no workers joined it grants nothing and costs one
	// idle goroutine.
	Dist dist.Config
	// Traffic is the admission controller: API-key auth, per-client
	// submission rate limits, and the in-flight cost share cap pushed into
	// the engine's fair-share dispatcher. nil runs the server open and
	// unlimited — exactly the pre-traffic behavior.
	Traffic *traffic.Controller
}

// New returns a server running jobs on an engine with the given worker
// count (<= 0 selects GOMAXPROCS) and no persistence.
func New(workers int) *Server {
	s, err := NewWithOptions(workers, Options{})
	if err != nil {
		// Unreachable: only a Store can fail construction.
		panic(err)
	}
	return s
}

// NewWithOptions returns a server persisting to opts.Store, rehydrated from
// whatever state the store already holds. Construction fails only if the
// store cannot be read.
func NewWithOptions(workers int, opts Options) (*Server, error) {
	s := &Server{
		manager: engine.NewManager(engine.New(workers)),
		mux:     http.NewServeMux(),
		store:   opts.Store,
		traffic: opts.Traffic,
		games:   map[string]*core.Game{},
		cache:   map[string]string{},
		handles: map[string]handleRec{},
		refs:    map[string]int{},

		entryBodies: map[engine.CatalogEntry][]byte{},
	}
	if s.traffic == nil {
		s.traffic = traffic.New(traffic.Config{})
	}
	// The quota policy lives in the engine's take path; push it there once.
	s.manager.Engine().SetClientShare(s.traffic.MaxShare())
	if s.store != nil {
		s.pkick = make(chan struct{}, 1)
		s.pstop = make(chan struct{})
		s.pdone = make(chan struct{})
		if err := s.rehydrate(opts.FailInterrupted); err != nil {
			return nil, err
		}
		go s.persistLoop()
	}
	// The coordinator comes up after rehydration: interrupted jobs are
	// already resubmitted with full pending queues by then, which is exactly
	// how leases "rehydrate" — every previously leased task is simply
	// pending again, and stale reports from surviving workers get 410.
	s.fleet = dist.New(s.manager.Engine(), opts.Dist)
	s.routes()
	return s, nil
}

// routes registers the endpoint table. Admission control (protect) wraps
// everything except three surfaces: /healthz and the spec catalog stay open
// so probes and clients can discover the server before holding a key, and
// /dist/* stays open because the worker fleet sits inside the trust boundary
// (it is fingerprint-gated separately). Submission endpoints additionally
// charge the client's rate-limit bucket (the `true` rows).
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v2/games", s.protect(s.handleCreateGame, false))
	s.mux.HandleFunc("GET /v2/games/{id}", s.protect(s.handleGetGame, false))
	s.mux.HandleFunc("GET /v2/specs", s.handleListSpecs)
	s.mux.HandleFunc("GET /v2/specs/{kind}", s.handleSpecEntry)
	s.mux.HandleFunc("POST /v2/jobs", s.protect(s.handleCreateJobV2, true))
	// Batch admission is per item, not per request: the handler charges the
	// client's bucket once per envelope, so a partial throttle 429s only the
	// items past the budget (each with its own Retry-After hint) instead of
	// the whole batch costing a single token.
	s.mux.HandleFunc("POST /v2/batch", s.protect(s.handleCreateBatch, false))
	s.mux.HandleFunc("GET /v2/jobs/{handle}", s.protect(s.handleHandleStatus, false))
	s.mux.HandleFunc("GET /v2/jobs/{handle}/result", s.protect(s.handleHandleResult, false))
	s.mux.HandleFunc("GET /v2/jobs/{handle}/events", s.protect(s.handleHandleEvents, false))
	s.mux.HandleFunc("DELETE /v2/jobs/{handle}", s.protect(s.handleReleaseHandle, false))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /dist/join", s.handleDistJoin)
	s.mux.HandleFunc("POST /dist/lease", s.handleDistLease)
	s.mux.HandleFunc("POST /dist/report", s.handleDistReport)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running job. In-flight requests still get coherent
// (canceled) statuses; call during graceful shutdown after the listener
// stops accepting connections. Jobs canceled by Close keep their
// "submitted" store records — a shutdown is an interruption, not a verdict
// — so the next process life resubmits them. Close does not close the
// store (the caller owns it).
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	// Stop the coordinator before the manager: outstanding leases requeue
	// into their jobs first, so no report or expiry sweep races the mass
	// cancellation below and workers' next reports find their leases gone.
	s.fleet.Close()
	s.manager.Close()
	if s.store != nil {
		// Stop the persistence drain and wait for its final flush, so
		// everything enqueued before Close is on disk by the time the
		// caller closes the store; the extra drain catches ops that raced
		// the loop's exit (enqueuePersist runs post-stop ops inline).
		s.pstopOnce.Do(func() { close(s.pstop) })
		<-s.pdone
		s.drainPersist()
	}
}

func (s *Server) handleCreateGame(w http.ResponseWriter, r *http.Request) {
	var g core.Game
	if !decodeInto(w, r, &g) {
		return
	}
	id, err := gameID(&g)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Persist before publishing (synchronously — registration is rare and
	// durability-or-500 is the contract here): a game that is registered
	// but not durable would break job records referencing it after a
	// restart.
	if s.store != nil {
		if err := s.store.PutGame(id, &g); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("persist game: %w", err))
			return
		}
	}
	s.mu.Lock()
	s.games[id] = &g
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":     id,
		"miners": g.NumMiners(),
		"coins":  g.NumCoins(),
	})
}

func (s *Server) handleGetGame(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	g, ok := s.games[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown game"))
		return
	}
	writeJSON(w, http.StatusOK, g)
}

// handleListSpecs serves the full spec catalog: every registered
// kind@version with its JSON-Schema and latest flag, the catalog
// fingerprint, and — kept for older clients — the flat kind list.
func (s *Server) handleListSpecs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprint": engine.CatalogFingerprint(),
		"kinds":       engine.SpecKinds(),
		"specs":       engine.Catalog(),
	})
}

// handleSpecEntry serves one catalog entry: a bare kind names its latest
// version, "kind@vN" pins one.
func (s *Server) handleSpecEntry(w http.ResponseWriter, r *http.Request) {
	wire := r.PathValue("kind")
	kind, version, err := engine.ParseKindVersion(wire)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for _, e := range engine.Catalog() {
		if e.Kind != kind {
			continue
		}
		if version == 0 && e.Latest || version == e.Version {
			body, err := s.specEntryBody(e)
			if err != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
				return
			}
			writeBody(w, http.StatusOK, body)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown spec %q", wire))
}

// specEntryBody renders a catalog entry as GET /v2/specs/{kind} serves it,
// once per entry value. The entry is comparable and its schemas never
// change after registration, so it keys its own body: a registration that
// adds a version or moves Latest yields new entries, which render anew.
func (s *Server) specEntryBody(e engine.CatalogEntry) ([]byte, error) {
	s.entryMu.Lock()
	body, ok := s.entryBodies[e]
	s.entryMu.Unlock()
	if ok {
		return body, nil
	}
	body, err := renderJSON(e)
	if err != nil {
		return nil, err
	}
	s.entryMu.Lock()
	s.entryBodies[e] = body
	s.entryMu.Unlock()
	return body, nil
}

// handleHealthz is the liveness probe, extended with build identity — the
// server version, the Go runtime, and the catalog fingerprint (hash of the
// registered kinds@versions), so replica drift in the accepted wire surface
// is observable without submitting anything — and with the engine's
// scheduler snapshot (worker cap, active jobs, queued/running task counts,
// cumulative steals), so queue pressure is observable without enumerating
// jobs.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":              "ok",
		"version":             Version,
		"go":                  runtime.Version(),
		"catalog_fingerprint": engine.CatalogFingerprint(),
		"kinds":               len(engine.SpecKinds()),
		"engine":              s.manager.Engine().Stats(),
		"dist":                s.fleet.Stats(),
		"traffic":             s.traffic.Stats(),
	}
	if n := s.persistFails.Load(); n > 0 {
		body["persist_failures"] = n
		if msg, _ := s.persistLastErr.Load().(string); msg != "" {
			body["persist_last_error"] = msg
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// gameID derives the content-addressed game identifier: a hash of the
// canonical wire form, so the same game always registers under the same ID.
func gameID(g *core.Game) (string, error) {
	b, err := json.Marshal(g)
	if err != nil {
		return "", fmt.Errorf("hash game: %w", err)
	}
	sum := sha256.Sum256(b)
	return "g-" + hex.EncodeToString(sum[:8]), nil
}

// MaxRequestBody bounds every JSON request body (/v2/* and /dist/*). The
// largest bodies the repo's own callers send stay far below it: a full
// POST /v2/batch is 256 envelopes of a few hundred bytes each unless they
// inline games, and a gocworker's POST /dist/report carries at most one
// lease of per-task documents (-lease-tasks, default 256, each under a
// kilobyte). 8 MiB leaves room for batches of large inline games and for
// raised lease sizes while keeping a hostile body from being buffered
// without limit.
const MaxRequestBody = 8 << 20

// decodeInto decodes a request body into v, rejecting unknown fields and
// bodies over MaxRequestBody. On failure it writes the 400 (or 413 for an
// oversized body) and reports false. Every handler that reads a JSON body
// goes through it.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Encode to a buffer before touching the ResponseWriter: the status
	// header can be written only once, so a marshal failure discovered
	// while streaming would emit a truncated body under the already-sent
	// success code. Buffering turns that into a clean 500.
	body, err := renderJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = renderJSON(map[string]string{"error": "encode response: " + err.Error()}) // a flat map[string]string always encodes
	}
	writeBody(w, code, body)
}

// renderJSON encodes v as every JSON response carries it: indented, with a
// trailing newline.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeBody sends a rendered JSON body under code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//goclint:allow errdrop -- headers are sent; a failed body write is the client hanging up
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
