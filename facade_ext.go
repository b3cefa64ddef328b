package gameofcoins

import (
	"context"
	"encoding/json"
	"net/http"

	"gameofcoins/client"
	"gameofcoins/internal/design"
	"gameofcoins/internal/dist"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/exact"
	"gameofcoins/internal/learning"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/security"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// Extended facade: ablations, verification, and security analysis.

// SimultaneousResult reports a LearnSimultaneous run.
type SimultaneousResult = learning.SimultaneousResult

// LearnSimultaneous runs the simultaneous-best-response ablation dynamic:
// unlike the sequential model Theorem 1 covers, it may cycle (Result.Cycled).
func LearnSimultaneous(g *Game, s0 Config, maxRounds int) (SimultaneousResult, error) {
	return learning.RunSimultaneous(g, s0, maxRounds)
}

// NaiveDesignResult reports a NaiveOneShotDesign attempt.
type NaiveDesignResult = design.NaiveResult

// NaiveOneShotDesign is the baseline manipulation strategy the staged
// Designer is measured against: a single subsidy shot followed by
// relaxation. It frequently misses the target (see EXPERIMENTS.md E13).
func NaiveOneShotDesign(g *Game, s0, sf Config, sched Scheduler, r *Rand) (NaiveDesignResult, error) {
	return design.NaiveOneShot(g, s0, sf, sched, r)
}

// CoinSecurity is the per-coin decentralization snapshot (max miner share,
// HHI, Nakamoto coefficient).
type CoinSecurity = security.CoinReport

// SecuritySnapshot computes per-coin decentralization metrics for s.
func SecuritySnapshot(g *Game, s Config) []CoinSecurity { return security.Snapshot(g, s) }

// Insecure reports whether any non-empty coin of s has a 51% attacker.
func Insecure(g *Game, s Config) bool { return security.Insecure(g, s) }

// EngineDisagreement is a configuration/miner/coin triple on which the fast
// float engine and the exact rational engine disagree about a better
// response — evidence of a near-tie the epsilon resolves.
type EngineDisagreement = exact.Disagreement

// CrossValidate compares every better-response decision of the float engine
// against exact big.Rat arithmetic at configuration s.
func CrossValidate(g *Game, s Config) []EngineDisagreement { return exact.CrossValidate(g, s) }

// PayoffSpread is a miner's min/max payoff across a set of equilibria.
type PayoffSpread = equilibria.PayoffSpread

// EquilibriumSpreads computes per-miner payoff spreads over equilibria —
// the redistribution a Section-5 manipulator can shop from.
func EquilibriumSpreads(g *Game, eqs []Config) []PayoffSpread { return equilibria.Spreads(g, eqs) }

// BestEquilibriumFor returns the equilibrium in eqs that maximizes miner
// p's payoff, and that payoff.
func BestEquilibriumFor(g *Game, eqs []Config, p MinerID) (Config, float64) {
	return equilibria.BestTargetFor(g, eqs, p)
}

// Concurrent experiment engine (internal/engine) and the gocserve HTTP
// service (internal/server). The engine fans deterministic job specs across
// a worker pool; results are bit-identical for any worker count because
// every task draws from an index-forked rng stream (Rand.Fork).
type (
	// Engine runs one job spec synchronously over a worker pool.
	Engine = engine.Engine
	// EngineSpec is a typed, deterministic, parallelizable job.
	EngineSpec = engine.Spec
	// EngineProgress reports completed/total tasks of a running job, plus
	// the scheduler's running/queued counts as of the last completed task.
	EngineProgress = engine.Progress
	// Sizer is implemented by specs that can estimate per-task cost up
	// front; the engine then dispatches their tasks longest-first, cutting
	// tail latency on skewed workloads. Ordering never affects results.
	Sizer = engine.Sizer
	// EngineSchedStats snapshots the engine's shared dispatcher (workers,
	// active jobs, queued/running tasks, steals); served from /healthz.
	EngineSchedStats = engine.SchedStats
	// EngineJob tracks an asynchronous engine run.
	EngineJob = engine.Job
	// EngineJobStatus is a point-in-time job snapshot.
	EngineJobStatus = engine.Status
	// EngineJobState is a job lifecycle state (pending … done/failed/canceled).
	EngineJobState = engine.State
	// JobManager submits, tracks, and cancels asynchronous engine jobs.
	JobManager = engine.Manager

	// LearnSweep sweeps better-response learning across schedulers and
	// seeds on a fixed or randomly generated game.
	LearnSweep = engine.LearnSweep
	// LearnSweepResult aggregates per-scheduler convergence statistics.
	LearnSweepResult = engine.LearnSweepResult
	// DesignSweep runs the Section-5 reward-design mechanism on random games.
	DesignSweep = engine.DesignSweep
	// DesignSweepResult aggregates design cost/steps statistics.
	DesignSweepResult = engine.DesignSweepResult
	// ReplaySweep replays the Figure-1 market scenario across derived seeds.
	ReplaySweep = engine.ReplaySweep
	// ReplaySweepResult aggregates migration outcomes.
	ReplaySweepResult = engine.ReplaySweepResult
	// EquilibriumSweep enumerates pure equilibria over random games.
	EquilibriumSweep = engine.EquilibriumSweep
	// EquilibriumSweepResult aggregates the equilibrium-count distribution.
	EquilibriumSweepResult = engine.EquilibriumSweepResult

	// ReplayScenarioParams tune the synthetic Figure-1 replay scenario.
	ReplayScenarioParams = replay.ScenarioParams

	// Server is the gocserve HTTP handler (games, jobs, results, cache).
	Server = server.Server
	// ServerOptions configure a Server beyond the worker count: the
	// persistence Store, the interrupted-job recovery policy, and the
	// admission controller (Traffic).
	ServerOptions = server.Options

	// TrafficConfig configures admission control for a multi-tenant
	// Server: the API keyring, the per-client submission token bucket
	// (Rate/Burst → 429 + Retry-After), and the per-client cap on the
	// share of in-flight work cost (MaxShare).
	TrafficConfig = traffic.Config
	// TrafficController enforces a TrafficConfig; set it as
	// ServerOptions.Traffic. Admission control changes who runs when,
	// never result bytes.
	TrafficController = traffic.Controller
	// TrafficKeyring maps API keys to client identities (constant-time
	// lookup). See ParseKeyring / LoadKeyring.
	TrafficKeyring = traffic.Keyring
	// TrafficStats is the controller's per-client admitted/throttled/
	// unauthorized counters, served from /healthz under "traffic".
	TrafficStats = traffic.Stats

	// Store is the pluggable persistence backend for the gocserve server:
	// games, job records, deterministic results, and v2 handles. See
	// NewFileStore.
	Store = store.Store
	// JobRecord is the durable form of one job in a Store.
	JobRecord = store.JobRecord

	// JobEnvelope is the self-describing v2 wire form of a job: a registered
	// spec kind — bare ("learn_sweep", latest version) or version-pinned
	// ("learn_sweep@v2") — a seed, and the spec document the registry
	// decodes.
	JobEnvelope = engine.JobEnvelope
	// SpecSchema is the JSON-Schema (draft 2020-12 subset) describing one
	// spec version's wire document, served from GET /v2/specs.
	SpecSchema = engine.Schema
	// SpecCatalogEntry is one (kind, version) of the spec catalog.
	SpecCatalogEntry = engine.CatalogEntry
	// TaskRange is a half-open span [Lo, Hi) of task indices — the one
	// range representation the result data plane uses end to end: lease
	// spans, completed-result ranges, ?range=lo-hi queries, store records.
	TaskRange = engine.TaskRange
	// JobHandle is the v2 wire form of a per-client job handle: one client's
	// reference-counted claim on a deduplicated server-side job.
	JobHandle = server.JobHandle
	// GameResolver resolves registered-game references when decoding specs.
	GameResolver = engine.GameResolver

	// Client is the typed Go SDK for the gocserve v2 API (package client).
	Client = client.Client
	// ClientOption configures a Client (client.WithHTTPClient,
	// client.WithFingerprint, …).
	ClientOption = client.Option
	// ClientHandle is the SDK-side job handle (Wait, Watch, Result, Release).
	ClientHandle = client.Handle

	// DistConfig tunes the lease-based fleet coordinator embedded in every
	// Server: lease TTL, lease sizing, poll cadence (internal/dist).
	DistConfig = dist.Config
	// DistStats is the coordinator's fleet snapshot (workers, leases,
	// counters), served from /healthz under "dist".
	DistStats = dist.Stats
	// DistWorkerStats is one fleet worker's view within DistStats.
	DistWorkerStats = dist.WorkerStats
	// WorkerRunner is the worker-side loop gocworker wraps: join a
	// coordinator, then lease → execute → report until the context ends.
	// Embedders can run one in-process against any coordinator.
	WorkerRunner = dist.Runner
	// WorkerTransport carries the worker↔coordinator protocol; HTTP in
	// production (NewWorkerTransport), in-process for tests.
	WorkerTransport = dist.Transport
)

// NewEngine returns a worker-pool engine; workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// NewJobManager returns a manager running asynchronous jobs on e.
func NewJobManager(e *Engine) *JobManager { return engine.NewManager(e) }

// RunJob executes spec on e and returns its aggregated result. The seed
// roots all job randomness; results do not depend on e's worker count.
func RunJob(ctx context.Context, e *Engine, spec EngineSpec, seed uint64) (any, error) {
	return e.Run(ctx, spec, seed, nil)
}

// NewServer returns the gocserve HTTP handler backed by a fresh engine with
// the given worker count. Mount it on any mux or serve it directly; call
// Server.Close during shutdown to cancel running jobs.
func NewServer(workers int) *Server { return server.New(workers) }

// NewServerWithOptions is NewServer with persistence: the server mirrors
// its state into opts.Store and rehydrates from it on construction, so
// finished jobs reappear as servable cached results (same bytes,
// cached:true) and jobs interrupted mid-run are resubmitted under their
// original spec and seed — or marked failed with opts.FailInterrupted. It
// fails only if the store cannot be read.
func NewServerWithOptions(workers int, opts ServerOptions) (*Server, error) {
	return server.NewWithOptions(workers, opts)
}

// NewFileStore opens (creating if needed) the file-backed Store rooted at
// dir: an append-only JSONL operation log, replayed on open and compacted
// periodically. It is what `gocserve -data DIR` uses; close it after the
// server shuts down.
func NewFileStore(dir string) (Store, error) { return store.OpenFile(dir) }

// RegisterResultCodec registers a decoder reviving stored results of a
// custom spec kind and version into their typed form after a restart, plus
// an optional result schema describing the aggregate result document (served
// from GET /v2/specs as result_schema). By convention the schema's $defs
// carry "task" — the per-task document the result data plane streams, which
// the client SDK validates during Handle.StreamResult — and "summary" for
// shared stats blocks. The codec itself is optional — versions without one
// still round-trip byte-identically as raw JSON — but a registered codec
// means in-process consumers (Job.Result) see the same types before and
// after rehydration. The (kind, version) must already be registered via
// RegisterSpec.
func RegisterResultCodec(kind string, version int, decode func(json.RawMessage) (any, error), schema *SpecSchema) {
	engine.RegisterResultCodec(kind, version, decode, schema)
}

// RegisterSpec registers a decoder for one version of a job-spec kind
// (version 1 is the kind's original wire format; a breaking change to the
// spec's JSON shape ships as version+1 and coexists with the old one). Once
// registered, the version is accepted end to end — POST /v2/jobs as "kind"
// (latest) or "kind@vN" (pinned), POST /v2/batch, result caching, the
// client SDK — with zero changes to the server: the serving layers resolve
// every envelope purely through this registry. schema, if non-nil, is
// served from GET /v2/specs and enforced on submissions (422 on shape
// mismatch); it must accept exactly the documents decode accepts. Call
// RegisterSpec from an init function, next to the spec type; it panics on
// duplicate (kind, version) pairs.
func RegisterSpec(kind string, version int, decode func(json.RawMessage) (EngineSpec, error), schema *SpecSchema) {
	engine.RegisterSpec(kind, version, decode, schema)
}

// SpecKinds returns the registered job-spec kinds (bare, unversioned),
// sorted.
func SpecKinds() []string { return engine.SpecKinds() }

// SpecCatalog returns every registered (kind, version) with its wire name,
// latest/deprecated flags, and schema — what gocserve serves from
// GET /v2/specs.
func SpecCatalog() []SpecCatalogEntry { return engine.Catalog() }

// CatalogFingerprint hashes the registered kinds@versions into a short
// identifier: two processes with the same fingerprint accept the same wire
// surface.
func CatalogFingerprint() string { return engine.CatalogFingerprint() }

// NewClient returns the typed SDK client for a gocserve instance at url.
// Options pin behavior per client — e.g. client.WithFingerprint(fp) asserts
// every submission against a captured catalog fingerprint (409 on drift).
func NewClient(url string, opts ...ClientOption) *Client { return client.New(url, opts...) }

// NewTrafficController returns the admission controller for cfg; set it as
// ServerOptions.Traffic to run a Server multi-tenant (what `gocserve -keys
// -rate -burst -max-share` does).
func NewTrafficController(cfg TrafficConfig) *TrafficController { return traffic.New(cfg) }

// LoadKeyring reads a "client:key"-per-line API keyring file.
func LoadKeyring(path string) (*TrafficKeyring, error) { return traffic.LoadKeyring(path) }

// NewWorkerTransport returns the HTTP transport a WorkerRunner uses to reach
// the coordinator embedded in a gocserve instance at url — the same wire
// protocol the gocworker binary speaks.
func NewWorkerTransport(url string) WorkerTransport { return dist.NewHTTP(url) }

// Compile-time check that the facade server is a plain http.Handler.
var _ http.Handler = (*Server)(nil)
