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
//	                                  kind@version with its schema, latest/
//	                                  deprecated flags, and the catalog
//	                                  fingerprint
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
//	                                  ledger); oversized spans stream chunked
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
// Persistence is pluggable (internal/store): every game registration, job
// submission, finished result, and handle mint/release is mirrored into a
// Store, and NewWithOptions rehydrates the whole state on startup —
// finished jobs reappear as servable cached results under their original
// IDs, and jobs that were mid-run when the process stopped are resubmitted
// under their original spec and seed (determinism makes the rerun
// byte-identical) or, with Options.FailInterrupted, marked failed. Without
// a store (New, or a nil Options.Store) persistence is disabled entirely —
// exactly the old behavior, at the old cost.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gameofcoins/internal/core"
	"gameofcoins/internal/dist"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// JobHandle is the wire form of a per-client job handle (the v2 POST and
// GET responses). Handle names this client's claim on the job; Clients is
// the number of live handles sharing it. The embedded Status describes the
// underlying (possibly shared) job.
type JobHandle struct {
	Handle  string `json:"handle"`
	Clients int    `json:"clients"`
	// Client is the authenticated identity the handle was minted for;
	// omitted on an open (keyless) server.
	Client string `json:"client,omitempty"`
	engine.Status
}

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
	pops      []func() // guarded by pmu
	pkick     chan struct{}
	pstop     chan struct{}
	pdone     chan struct{}
	pstopOnce sync.Once

	// Persist failures are recorded, not dropped: a store write that errors
	// leaves the on-disk log behind memory, which the next restart silently
	// recomputes — invisible unless counted. /healthz surfaces both fields.
	persistFails   atomic.Uint64
	persistLastErr atomic.Value // string: most recent store-write error

	mu      sync.Mutex
	closing bool                  // guarded by mu; set by Close: suppress terminal records for shutdown-canceled jobs
	games   map[string]*core.Game // guarded by mu
	cache   map[string]string     // guarded by mu; cache key → ID of the job holding the result

	// Per-client handles. A handle is one client's reference to a
	// deduplicated job; refs counts live handles per job so releasing a
	// handle cancels the job only when no other client still wants it.
	handles       map[string]string // guarded by mu; handle id → job id
	handleOrder   []string          // guarded by mu; handle ids in mint order, for eviction
	refs          map[string]int    // guarded by mu; job id → live handle count
	nextHandle    uint64            // guarded by mu
	handleSweepAt int               // guarded by mu; pruneHandlesLocked's next sweep threshold

	// owners records which authenticated client each handle was minted for
	// (handles minted anonymously — open server, rehydrated handles — are
	// absent). Ownership gates DELETE when a keyring is enforced: releasing
	// another client's claim on a shared job would let one tenant cancel
	// another's work. Deliberately in-memory only: after a restart rehydrated
	// handles are ownerless, which fails open to the pre-traffic semantics.
	owners map[string]string // guarded by mu
}

// MaxHandles caps the v2 handle table. Handles are minted per client and
// many clients never DELETE, so unlike the result cache the table is not
// bounded by job retention; past the cap the oldest handles are evicted
// (404 on later use) *without* canceling their jobs.
const MaxHandles = 4 * engine.DefaultRetention

// Options configure a Server beyond the worker count.
type Options struct {
	// Store persists games, jobs, results, and handles across restarts.
	// nil disables persistence entirely — no mirroring, no extra result
	// copies, which is the historical (and New's) behavior. store.NewMem
	// gives a process-local store for in-process restart scenarios.
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
		handles: map[string]string{},
		refs:    map[string]int{},
		owners:  map[string]string{},
	}
	if s.traffic == nil {
		s.traffic = traffic.New(traffic.Config{})
	}
	// The quota policy lives in the engine's take path; push it there once.
	s.manager.Engine().SetClientShares(s.traffic.MaxShare(), nil)
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

// enqueuePersist queues one store write for the background drain. Callers
// may hold s.mu: enqueueing never blocks and never touches the disk, and
// because mutations enqueue in the order they are applied to the in-memory
// tables, the log sees the same total order. A no-op without a store.
//
// After Close has stopped the drain, the op runs inline instead (callers at
// that point — watchJob goroutines recording a job that finished during
// shutdown — are already off the request path). A write that slips through
// the remaining hairline race is only ever a terminal record, and losing
// one is benign: the record stays "submitted" and the next life recomputes
// the identical result.
// recordPersist tallies a store-write failure instead of dropping it: the
// persist queue has no request to fail, so the error surfaces as a counter
// and last-error string in /healthz. The in-memory tables stay authoritative
// for this life; the on-disk log is behind, which the next restart resolves
// by recomputing — the counter is what makes that drift observable.
func (s *Server) recordPersist(err error) {
	if err == nil {
		return
	}
	s.persistFails.Add(1)
	s.persistLastErr.Store(err.Error())
}

func (s *Server) enqueuePersist(op func()) {
	if s.store == nil {
		return
	}
	select {
	case <-s.pstop:
		op()
		return
	default:
	}
	s.pmu.Lock()
	s.pops = append(s.pops, op)
	s.pmu.Unlock()
	select {
	case s.pkick <- struct{}{}:
	default:
	}
}

// persistLoop drains the write queue until Close, then flushes what is left
// so a graceful shutdown loses nothing that was enqueued.
func (s *Server) persistLoop() {
	defer close(s.pdone)
	for {
		select {
		case <-s.pkick:
			s.drainPersist()
		case <-s.pstop:
			s.drainPersist()
			return
		}
	}
}

func (s *Server) drainPersist() {
	for {
		s.pmu.Lock()
		ops := s.pops
		s.pops = nil
		s.pmu.Unlock()
		if len(ops) == 0 {
			return
		}
		for _, op := range ops {
			op()
		}
	}
}

// rehydrate reloads the store's state into a freshly constructed (not yet
// shared) server: games, then jobs in creation order so the manager's
// eviction order matches the original life, then handles against the jobs
// that actually came back.
func (s *Server) rehydrate(failInterrupted bool) error {
	snap, err := s.store.Load()
	if err != nil {
		return fmt.Errorf("server: load store: %w", err)
	}
	for id, g := range snap.Games {
		//goclint:allow lockguard -- pre-publication: rehydrate runs inside NewWithOptions before the server is shared
		s.games[id] = g
	}
	jobs := make([]store.JobRecord, 0, len(snap.Jobs))
	for _, rec := range snap.Jobs {
		jobs = append(jobs, rec)
	}
	sort.Slice(jobs, func(i, k int) bool { return idLess(jobs[i].ID, jobs[k].ID, "job-") })
	// Rehydration mutates the server's tables without s.mu (nothing else
	// can see the server yet) — so the completion watchers of resubmitted
	// jobs, which DO take s.mu and mutate s.cache the moment their job
	// ends, must not start until every table below is fully built. Collect
	// them and attach last.
	var watch []watchStart
	for _, rec := range jobs {
		watch = append(watch, s.rehydrateJob(rec, failInterrupted, snap.Ranges[rec.ID])...)
	}
	handles := make([]string, 0, len(snap.Handles))
	for h := range snap.Handles {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, k int) bool { return idLess(handles[i], handles[k], "h-") })
	for _, h := range handles {
		jobID := snap.Handles[h]
		if _, err := s.manager.Get(jobID); err != nil {
			continue // the job did not come back; the handle would dangle
		}
		s.handles[h] = jobID
		s.handleOrder = append(s.handleOrder, h)
		s.refs[jobID]++
	}
	s.nextHandle = snap.NextHandle
	for _, w := range watch {
		s.watchJob(w.job, w.rec)
	}
	return nil
}

// watchStart is a deferred watchJob call: rehydration collects these and
// attaches them only after the server's tables are fully built.
type watchStart struct {
	job *engine.Job
	rec store.JobRecord
}

// rehydrateJob revives one job record. Terminal jobs are restored as-is
// (done jobs re-enter the result cache; the record's result document decodes
// through the registry's result codec, so the served bytes are identical to
// the pre-restart ones). A record still marked submitted was interrupted
// mid-run — and a done record whose result document no longer decodes (a
// codec changed across the upgrade) is treated the same way: the stored
// spec and seed deterministically recompute the result, so nothing is
// destroyed. Nothing here is fatal: a record that cannot be revived at all
// (kind no longer registered, corrupt spec) becomes a failed job that says
// why, not a startup abort.
func (s *Server) rehydrateJob(rec store.JobRecord, failInterrupted bool, ranges []store.RangeRecord) []watchStart {
	switch rec.State {
	case store.JobDone:
		res, err := engine.DecodeResult(rec.Kind, rec.Version, rec.Result)
		if err != nil {
			return s.recomputeJob(rec, failInterrupted,
				fmt.Sprintf("stored result unreadable after restart: %v", err), ranges)
		}
		if j, err := s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, res, engine.StateDone, ""); err == nil {
			//goclint:allow lockguard -- pre-publication: rehydrateJob runs under rehydrate before the server is shared
			s.cache[rec.Key] = rec.ID
			// Persisted per-task ranges rebuild the result ledger, so ?range
			// fetches and resumed result streams survive the restart.
			prefill, _ := flattenRanges(rec.Tasks, ranges)
			j.PrefillResults(prefill)
		}
	case store.JobFailed:
		_, _ = s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, nil, engine.StateFailed, rec.Error)
	case store.JobCanceled:
		_, _ = s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, nil, engine.StateCanceled, rec.Error)
	case store.JobSubmitted:
		return s.recomputeJob(rec, failInterrupted, "interrupted by server restart", ranges)
	}
	return nil
}

// recomputeJob reruns a job record under its original ID, spec, and seed —
// the recovery path for interrupted jobs and for done records whose stored
// result can no longer be decoded. Persisted result ranges from the previous
// life prefill the engine's result ledger, so only the missing suffix of
// tasks actually recomputes — and determinism makes the reassembled result
// byte-identical to an uninterrupted run. With failInterrupted set (or when
// the spec itself cannot be revived) the job is restored as failed instead,
// with reason explaining why. The returned watchStart (if any) must be
// attached by the caller once rehydration has finished building the tables.
// flattenRanges turns persisted range records into a task-indexed document
// map (entries outside [0, tasks) dropped) plus the store's contiguous
// coverage from 0 — the point above which nothing is persisted yet.
func flattenRanges(tasks int, ranges []store.RangeRecord) (map[int]json.RawMessage, int) {
	var prefill map[int]json.RawMessage
	from := 0
	for _, rr := range ranges {
		for k, doc := range rr.Results {
			if i := rr.Lo + k; i >= 0 && i < tasks {
				if prefill == nil {
					prefill = make(map[int]json.RawMessage, len(rr.Results))
				}
				prefill[i] = doc
			}
		}
		if rr.Lo <= from && rr.End() > from {
			from = rr.End()
		}
	}
	return prefill, from
}

func (s *Server) recomputeJob(rec store.JobRecord, failInterrupted bool, reason string, ranges []store.RangeRecord) []watchStart {
	restoreFailed := func(msg string) {
		if _, err := s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, nil, engine.StateFailed, msg); err == nil {
			rec.State = store.JobFailed
			rec.Error = msg
			rec.Result = nil
			s.recordPersist(s.store.PutJob(rec))
		}
	}
	if failInterrupted {
		restoreFailed(reason)
		return nil
	}
	// Records written before the catalog redesign carry no version (0);
	// DecodeSpecAt maps that to v1, the pre-versioning wire format, so old
	// data directories recompute under exactly the semantics they ran with.
	spec, err := engine.DecodeSpecAt(rec.Kind, rec.Version, rec.Spec)
	if err != nil {
		restoreFailed(fmt.Sprintf("%s; not recomputable: %v", reason, err))
		return nil
	}
	// Persisted ranges become the engine's prefill: the decoded documents
	// land in the new job's results and ledger before any task runs, so the
	// scheduler only executes the uncovered suffix. from is the store's
	// contiguous coverage — the watcher resumes persisting above it instead
	// of rewriting spans the log already holds.
	prefill, from := flattenRanges(rec.Tasks, ranges)
	job, err := s.manager.SubmitJobOpts(rec.ID, spec, rec.Seed, engine.SubmitOptions{
		Remote: &engine.RemoteInfo{
			WireKind: pinnedKind(rec.Kind, rec.Version),
			Spec:     rec.Spec,
			Seed:     rec.Seed,
		},
		Prefill: prefill,
	})
	if err != nil {
		restoreFailed(fmt.Sprintf("%s; not recomputable: %v", reason, err))
		return nil
	}
	// Back to "submitted" in the store too, so a crash during the recompute
	// is itself recoverable (and the stale result document is dropped).
	rec.State = store.JobSubmitted
	rec.Result = nil
	rec.Error = ""
	s.recordPersist(s.store.PutJob(rec))
	//goclint:allow lockguard -- pre-publication: recomputeJob runs under rehydrate before the server is shared
	s.cache[rec.Key] = rec.ID
	s.watchRanges(job, rec.ID, from, spec)
	return []watchStart{{job: job, rec: rec}}
}

// idLess orders prefixed sequence IDs ("job-2" < "job-10") by mint age
// through the engine's shared parser, so rehydration order and the store's
// own eviction order agree: foreign (non-numeric) IDs count as sequence 0 —
// older than every minted ID — and tie-break by string.
func idLess(a, b, prefix string) bool {
	na, aok := engine.ParseSeq(a, prefix)
	nb, bok := engine.ParseSeq(b, prefix)
	switch {
	case aok && bok:
		return na < nb
	case aok != bok:
		return bok // the foreign ID (sequence 0) sorts first
	default:
		return a < b
	}
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
// result cache, submit. It returns the (possibly shared) job, whether the
// submission was answered by an existing cache entry, and a per-client
// handle minted *inside the dedup critical section* — minting later would
// let a concurrent last-handle DELETE cancel the job between the cache
// lookup and the refcount increment.
//
// client is the authenticated identity the submission runs as ("" when the
// server is open); it attributes the job in the engine's quota accounting and
// owns the minted handle. The envelope's priority class becomes the job's
// fair-share urgency weight. Neither enters the cache key: a cache hit
// attaches the client to the job as-is, keeping the original submitter's
// attribution and priority (dedup shares the computation, not the claim).
func (s *Server) submitEnvelope(env engine.JobEnvelope, client string) (*engine.Job, bool, JobHandle, error) {
	var jh JobHandle
	class, err := parsePriority(env.Priority)
	if err != nil {
		return nil, false, jh, err
	}
	// ResolveEnvelope is the whole registry path: version resolution ("kind"
	// → latest, "kind@vN" pinned), schema validation (a mismatch surfaces as
	// a *engine.SchemaError, which handlers map to 422 with the error's
	// JSON-pointer path), then the version's decoder.
	rs, err := engine.ResolveEnvelope(env)
	if err != nil {
		return nil, false, jh, err
	}
	spec, err := engine.ResolveSpec(rs.Spec, s.resolveGame)
	if err != nil {
		return nil, false, jh, err
	}
	canonical, err := engine.CanonicalSpecJSON(spec)
	if err != nil {
		// A spec that decoded from the wire but cannot re-encode is the
		// server's problem (a broken Marshaler, non-finite floats built by a
		// decoder), not the client's: surface it as a 500, not a 400.
		return nil, false, jh, internalError{err}
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
				jh = s.mintHandleLocked(job.ID(), client)
				s.mu.Unlock()
				return job, true, jh, nil
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
			WireKind: pinnedKind(rs.Kind, rs.Version),
			Spec:     canonical,
			Seed:     env.Seed,
		},
		Client: client,
		Weight: class.Weight(),
	})
	if err != nil {
		s.mu.Unlock()
		return nil, false, jh, err
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
	s.enqueuePersist(func() { s.recordPersist(s.store.PutJob(rec)) })
	// Publish the key before releasing the lock so no identical submission
	// can slip between submit and publish; retract it if the job fails or
	// is canceled.
	s.cache[key] = job.ID()
	jh = s.mintHandleLocked(job.ID(), client)
	s.pruneCacheLocked()
	s.mu.Unlock()
	s.watchJob(job, rec)
	s.watchRanges(job, job.ID(), 0, spec)
	return job, false, jh, nil
}

// watchJob follows job to its terminal state, then persists the terminal
// record and retracts the cache entry of a resultless end. Shutdown is the
// exception: jobs the manager canceled because the whole server is closing
// keep their "submitted" record, which is exactly what makes the next
// process life resubmit them.
func (s *Server) watchJob(job *engine.Job, rec store.JobRecord) {
	go func() {
		<-job.Done()
		if res, ok := job.Result(); ok {
			if s.store == nil {
				return
			}
			if b, err := json.Marshal(res); err == nil {
				rec.State = store.JobDone
				rec.Result = b
				rec.Error = ""
				s.enqueuePersist(func() { s.recordPersist(s.store.PutJob(rec)) })
			}
			// A result that cannot be marshalled also cannot be served; the
			// record stays "submitted" and a restart recomputes it.
			return
		}
		s.mu.Lock()
		if s.cache[rec.Key] == job.ID() {
			delete(s.cache, rec.Key)
		}
		closing := s.closing
		s.mu.Unlock()
		if closing || s.store == nil {
			return
		}
		st := job.Status()
		rec.State = store.JobFailed
		if st.State == engine.StateCanceled {
			rec.State = store.JobCanceled
		}
		rec.Error = st.Error
		rec.Result = nil
		s.enqueuePersist(func() { s.recordPersist(s.store.PutJob(rec)) })
	}()
}

// watchRanges incrementally persists a running job's result ledger: it
// follows the job's status stream and, each time the contiguous-prefix
// watermark advances, appends the new span [last, watermark) to the store as
// a range record. from is where persistence resumes (the store's existing
// coverage after a restart; 0 for fresh jobs). The goroutine exits with the
// status stream — the job's terminal record then either subsumes the spans
// (done: the aggregate persists and clears them) or leaves them as the next
// life's prefill (shutdown-canceled jobs keep their "submitted" record). A
// no-op without a store or for specs without per-task wire codecs.
func (s *Server) watchRanges(job *engine.Job, jobID string, from int, spec engine.Spec) {
	if s.store == nil {
		return
	}
	if _, ok := spec.(engine.TaskCoder); !ok {
		return
	}
	go func() {
		last := from
		persist := func(wm int) {
			if wm <= last {
				return
			}
			docs, err := job.ResultRange(last, wm)
			if err != nil {
				return
			}
			lo := last
			last = wm
			s.enqueuePersist(func() { s.recordPersist(s.store.PutJobRange(jobID, lo, docs)) })
		}
		for st := range job.Watch(context.Background()) {
			persist(st.Progress.Watermark)
		}
		// The final status snapshot can predate the last few recorded tasks
		// (Watch coalesces); catch the tail so a shutdown-canceled job's
		// record covers everything that actually computed.
		persist(job.Watermark())
	}()
}

// mintHandleLocked creates a fresh handle claiming jobID and enqueues its
// persistence — enqueueing under s.mu is what keeps a mint and a later
// eviction of the same handle in log order. Callers must hold s.mu; the
// returned JobHandle carries the handle id and refcount (the job status is
// filled in outside the lock).
func (s *Server) mintHandleLocked(jobID, client string) JobHandle {
	s.nextHandle++
	handle := fmt.Sprintf("h-%d", s.nextHandle)
	s.handles[handle] = jobID
	s.handleOrder = append(s.handleOrder, handle)
	s.refs[jobID]++
	if client != "" {
		s.owners[handle] = client
	}
	s.enqueuePersist(func() { s.recordPersist(s.store.PutHandle(handle, jobID)) })
	s.pruneHandlesLocked()
	return JobHandle{Handle: handle, Clients: s.refs[jobID], Client: client}
}

// internalError marks a submission failure that is the server's fault —
// encoding, storage — rather than the client's. Handlers map it to 500
// where a plain error means 400.
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// submitErrorCode classifies a submitEnvelope failure:
// schema mismatches — the document's shape diverges from the resolved
// version's published schema — are 422 (the request was well-formed JSON,
// the entity just doesn't match the catalog contract); other client errors
// — unknown kind, malformed or invalid spec, unknown game — are 400;
// internal encoding failures are 500.
func submitErrorCode(err error) int {
	var ie internalError
	if errors.As(err, &ie) {
		return http.StatusInternalServerError
	}
	var se *engine.SchemaError
	if errors.As(err, &se) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// submitErrorParts classifies a submission failure into the (code, message,
// path) triple both the single-submit response and batch items carry — one
// classifier, so the two surfaces can never diverge.
func submitErrorParts(err error) (code int, msg, path string) {
	code = submitErrorCode(err)
	msg = err.Error()
	var se *engine.SchemaError
	if errors.As(err, &se) {
		path = se.Path
	}
	return code, msg, path
}

// writeSubmitError writes a submission failure with its mapped status code;
// schema mismatches additionally carry the JSON-pointer "path" into the
// spec document so clients can point at the offending field.
func writeSubmitError(w http.ResponseWriter, err error) {
	code, msg, path := submitErrorParts(err)
	body := map[string]string{"error": msg}
	if path != "" {
		body["path"] = path
	}
	writeJSON(w, code, body)
}

// writeJobResult serves a job's result: 409 while running, 410 for
// terminal-but-resultless (failed/canceled).
func writeJobResult(w http.ResponseWriter, job *engine.Job) {
	st := job.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", st.ID, st.State))
		return
	}
	res, ok := job.Result()
	if !ok {
		// Terminal but resultless (failed or canceled): 410, not 409, so
		// clients that retry on "still running" don't poll forever.
		writeError(w, http.StatusGone, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     st.ID,
		"kind":   st.Kind,
		"result": res,
	})
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

// ---- versioned spec catalog, envelopes, handles, batch, SSE ----

// handleListSpecs serves the full spec catalog: every registered
// kind@version with its JSON-Schema and latest/deprecated flags, the
// catalog fingerprint, and — kept for older clients — the flat kind list.
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
			writeJSON(w, http.StatusOK, e)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown spec %q", wire))
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
	job, cached, jh, err := s.submitEnvelope(env, clientFrom(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	jh.Status = job.Status()
	jh.Cached = cached
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
			job, cached, jh, err := s.submitEnvelope(env, client)
			if err != nil {
				return JobHandle{}, err
			}
			jh.Status = job.Status()
			jh.Cached = cached
			return jh, nil
		}
		jh, err := submitItem()
		if err != nil {
			code, msg, path := submitErrorParts(err)
			results[i] = BatchResult{Error: msg, Code: code, Path: path}
			continue
		}
		results[i] = BatchResult{Job: &jh}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// foreignHandleError marks an access to a handle minted for a different
// client; handlers map it to 403 where other resolution failures are 404.
type foreignHandleError struct{ handle string }

func (e foreignHandleError) Error() string {
	return fmt.Sprintf("handle %q belongs to another client", e.handle)
}

// writeHandleError maps a jobForHandle failure: a foreign handle is 403,
// anything else (unknown handle, evicted job) 404.
func writeHandleError(w http.ResponseWriter, err error) {
	var fe foreignHandleError
	if errors.As(err, &fe) {
		writeError(w, http.StatusForbidden, err)
		return
	}
	writeError(w, http.StatusNotFound, err)
}

// jobForHandle resolves a handle to its job and the job's live handle count,
// enforcing ownership: a handle minted for one client is forbidden to every
// other, on reads as much as release — handles are sequential ("h-1",
// "h-2", ...), so without this any authenticated tenant could enumerate
// them and read other tenants' statuses and results. Ownerless handles
// (open server, or rehydrated from a previous life) stay readable by any
// authenticated client, matching the release rule.
func (s *Server) jobForHandle(handle, client string) (*engine.Job, int, error) {
	s.mu.Lock()
	jobID, ok := s.handles[handle]
	owner, owned := s.owners[handle]
	clients := s.refs[jobID]
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("unknown handle %q", handle)
	}
	if owned && owner != client {
		return nil, 0, foreignHandleError{handle}
	}
	job, err := s.manager.Get(jobID)
	if err != nil {
		return nil, 0, err
	}
	return job, clients, nil
}

func (s *Server) handleHandleStatus(w http.ResponseWriter, r *http.Request) {
	handle := r.PathValue("handle")
	job, clients, err := s.jobForHandle(handle, clientFrom(r))
	if err != nil {
		writeHandleError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, JobHandle{Handle: handle, Clients: clients, Status: job.Status()})
}

func (s *Server) handleHandleResult(w http.ResponseWriter, r *http.Request) {
	job, _, err := s.jobForHandle(r.PathValue("handle"), clientFrom(r))
	if err != nil {
		writeHandleError(w, err)
		return
	}
	if rng := r.URL.Query().Get("range"); rng != "" {
		writeResultRange(w, job, rng)
		return
	}
	writeJobResult(w, job)
}

// maxBufferedResultBody is the largest range-GET payload served through the
// buffering writeJSON path; bigger bodies stream document-by-document over
// chunked transfer instead of being assembled in one allocation.
const maxBufferedResultBody = 256 << 10

// writeResultRange serves ?range=lo-hi from the job's result ledger: the
// TaskCoder documents of tasks [lo, hi), servable mid-run as soon as the
// span is fully computed. Error mapping: a malformed or out-of-bounds range
// is 400, a span not yet fully computed is 409 (retry after the watermark
// passes hi), and a job without a ledger — non-TaskCoder spec, or restored
// terminal from a previous life — is 410 (no per-task documents will ever
// exist for it).
func writeResultRange(w http.ResponseWriter, job *engine.Job, rng string) {
	tr, err := engine.ParseTaskRange(rng)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	docs, err := job.ResultRange(tr.Lo, tr.Hi)
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrBadRange):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, engine.ErrRangeIncomplete):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, engine.ErrNoLedger):
			writeError(w, http.StatusGone, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	st := job.Status()
	size := 0
	for _, d := range docs {
		size += len(d) + 1
	}
	if size <= maxBufferedResultBody {
		writeJSON(w, http.StatusOK, map[string]any{
			"id":      st.ID,
			"kind":    st.Kind,
			"lo":      tr.Lo,
			"hi":      tr.Hi,
			"total":   st.Progress.Total,
			"results": docs,
		})
		return
	}
	// Oversized body: stream it. No Content-Length is set, so net/http
	// switches to chunked transfer; flushing per batch bounds the server-side
	// buffer regardless of how large the span is. The documents are
	// pre-encoded canonical JSON, so the body is assembled by concatenation —
	// no re-marshalling of a huge intermediate value.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"id":%q,"kind":%q,"lo":%d,"hi":%d,"total":%d,"results":[`,
		st.ID, st.Kind, tr.Lo, tr.Hi, st.Progress.Total)
	for i, d := range docs {
		if i > 0 {
			buf.WriteByte(',')
		}
		//goclint:allow errdrop -- bytes.Buffer writes cannot fail
		buf.Write(d)
		if buf.Len() >= maxBufferedResultBody {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return // client hung up; nothing recoverable
			}
			buf.Reset()
			if fl != nil {
				fl.Flush()
			}
		}
	}
	//goclint:allow errdrop -- bytes.Buffer writes cannot fail
	buf.WriteString("]}")
	//goclint:allow errdrop -- headers are sent; a failed body write is the client hanging up
	_, _ = w.Write(buf.Bytes())
}

// handleHandleEvents streams the job's status as server-sent events: a
// "progress" event per observed snapshot (coalesced to the latest for slow
// consumers), a "result-range" event each time the result ledger's
// contiguous-prefix watermark advances — its data is {"id","lo","hi"}, the
// newly completed task span, fetchable immediately via ?range=lo-hi — and a
// final "end" event carrying the terminal status, after which the stream
// closes. Backed by engine.Manager.Watch.
//
// Each event carries an "id:" line holding "done.watermark" — the snapshot's
// progress counter and the ledger watermark it reflects — so a client that
// reconnects after a dropped stream can send the standard Last-Event-ID
// header and have both progress it already saw suppressed AND the watermark
// resumed exactly where it left off: the first result-range event after a
// reconnect starts at the acknowledged watermark, never skipping or
// duplicating a span. A bare integer Last-Event-ID (pre-watermark clients)
// still suppresses progress and replays ranges from 0 — duplicates, never
// gaps. The terminal event is never suppressed (progress counters reset if a
// restart recomputes the job, so a stale ID must not swallow the ending).
func (s *Server) handleHandleEvents(w http.ResponseWriter, r *http.Request) {
	job, _, err := s.jobForHandle(r.PathValue("handle"), clientFrom(r))
	if err != nil {
		writeHandleError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	lastSeen, lastWM := -1, 0
	if lev := r.Header.Get("Last-Event-ID"); lev != "" {
		donePart, wmPart, composite := strings.Cut(lev, ".")
		if n, err := strconv.Atoi(donePart); err == nil {
			lastSeen = n
			if composite {
				if wm, err := strconv.Atoi(wmPart); err == nil && wm > 0 {
					lastWM = wm
				}
			}
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// Watch unsubscribes itself when the client disconnects (r.Context()).
	for st := range job.Watch(r.Context()) {
		// Watermark advances surface before the status event that carries
		// them, each as one span [lastWM, wm) — coalesced snapshots coalesce
		// the spans too, so a slow consumer sees fewer, wider ranges.
		if wm := st.Progress.Watermark; wm > lastWM {
			fmt.Fprintf(w, "id: %d.%d\nevent: result-range\ndata: {\"id\":%q,\"lo\":%d,\"hi\":%d}\n\n",
				st.Progress.Done, wm, st.ID, lastWM, wm)
			lastWM = wm
			fl.Flush()
		}
		event := "progress"
		if st.State.Terminal() {
			event = "end"
		} else if st.Progress.Done <= lastSeen {
			continue
		}
		b, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d.%d\nevent: %s\ndata: %s\n\n", st.Progress.Done, lastWM, event, b)
		fl.Flush()
	}
}

func (s *Server) handleReleaseHandle(w http.ResponseWriter, r *http.Request) {
	handle := r.PathValue("handle")
	client := clientFrom(r)
	s.mu.Lock()
	jobID, ok := s.handles[handle]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown handle %q", handle))
		return
	}
	// With auth enforced, only the handle's owner may release it: a release
	// can cancel the shared job, and one tenant must not be able to tear
	// down another's work. Ownerless handles (rehydrated from a previous
	// life) stay releasable by any authenticated client.
	if owner, owned := s.owners[handle]; owned && owner != client {
		s.mu.Unlock()
		writeError(w, http.StatusForbidden, fmt.Errorf("handle %q belongs to another client", handle))
		return
	}
	delete(s.handles, handle)
	delete(s.owners, handle)
	s.persistHandleRemovalLocked(handle)
	s.refs[jobID]--
	remaining := s.refs[jobID]
	var job *engine.Job
	if j, err := s.manager.Get(jobID); err == nil {
		job = j
	}
	// Cancel only when no other handle still claims the job.
	cancel := remaining <= 0
	if cancel {
		delete(s.refs, jobID)
	}
	if cancel && job != nil {
		// About to cancel: retract cache entries inside this critical
		// section so a concurrent identical submission submits fresh
		// instead of attaching to a job being torn down.
		s.retractCacheLocked(job)
	}
	s.mu.Unlock()
	resp := JobHandle{Handle: handle, Clients: remaining}
	if job != nil {
		if cancel {
			// Last interested client is gone: cancel the shared job (a no-op
			// if it already finished).
			job.Cancel()
		}
		resp.Status = job.Status()
	}
	writeJSON(w, http.StatusOK, resp)
}

// persistHandleRemovalLocked enqueues the persistence of a handle's removal
// (release or eviction). Enqueued under s.mu like the mint, so the log
// order of a handle's PutHandle and DeleteHandle always matches the
// in-memory order — a removed handle can never "resurrect" in the store.
func (s *Server) persistHandleRemovalLocked(handle string) {
	s.enqueuePersist(func() { s.recordPersist(s.store.DeleteHandle(handle)) })
}

// pruneHandlesLocked bounds the v2 handle bookkeeping. Handles are minted
// per client and many clients never DELETE, so unlike the result cache the
// table is not bounded by job retention. Two passes: drop handles whose job
// the Manager evicted, then compact handleOrder and — past MaxHandles —
// evict the oldest handles outright, *without* canceling their jobs (forced
// eviction is a memory bound, not a cancellation signal; the job keeps
// running and its result stays cached, but the evicted handle 404s).
//
// The sweep triggers on handleOrder's length, not the handle table's:
// released and evicted handle ids linger in handleOrder until compaction,
// so keying the trigger on it bounds handleOrder's own growth under
// submit→release churn (where the table itself stays small). Triggering on
// doubling since the last sweep — and evicting down to half the cap rather
// than to the cap, so a full table cannot re-trigger on every mint — keeps
// the amortized cost per mint O(1). Callers must hold s.mu.
func (s *Server) pruneHandlesLocked() {
	limit := s.handleSweepAt
	if limit < 2*engine.DefaultRetention {
		limit = 2 * engine.DefaultRetention
	}
	if limit > MaxHandles {
		limit = MaxHandles
	}
	if len(s.handleOrder) <= limit {
		return
	}
	for h, id := range s.handles {
		if _, err := s.manager.Get(id); err != nil {
			delete(s.handles, h)
			delete(s.owners, h)
			s.persistHandleRemovalLocked(h)
			if s.refs[id]--; s.refs[id] <= 0 {
				delete(s.refs, id)
			}
		}
	}
	target := len(s.handles)
	if target > MaxHandles {
		target = MaxHandles / 2
	}
	kept := s.handleOrder[:0]
	for _, h := range s.handleOrder {
		id, ok := s.handles[h]
		if !ok {
			continue // released, or dropped by the evicted-job pass
		}
		if len(s.handles) > target {
			delete(s.handles, h)
			delete(s.owners, h)
			s.persistHandleRemovalLocked(h)
			if s.refs[id]--; s.refs[id] <= 0 {
				delete(s.refs, id)
			}
			continue
		}
		kept = append(kept, h)
	}
	s.handleOrder = kept
	s.handleSweepAt = 2 * len(s.handleOrder)
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Encode to a buffer before touching the ResponseWriter: the status
	// header can be written only once, so a marshal failure discovered
	// while streaming would emit a truncated body under the already-sent
	// success code. Buffering turns that into a clean 500.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		enc = json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		//goclint:allow errdrop -- encoding a flat map[string]string cannot fail
		_ = enc.Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//goclint:allow errdrop -- headers are sent; a failed body write is the client hanging up
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
