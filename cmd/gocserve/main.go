// Command gocserve exposes the concurrent experiment engine as an HTTP JSON
// service: register games, submit learning/design/replay/enumeration jobs,
// stream progress, cancel, and fetch cached deterministic results.
//
// Usage:
//
//	gocserve [-addr :8372] [-workers N] [-data DIR] [-fail-interrupted]
//	         [-keys FILE] [-rate N] [-burst N] [-max-share F]
//	gocserve -version
//
// The API is the self-describing envelope form: POST a
// {"kind", "seed", "spec"} document and the server resolves it purely
// through the engine's versioned spec registry — new spec kinds (and new
// versions of existing kinds) plug in via engine.RegisterSpec with zero
// server changes. GET /v2/specs serves the full catalog: every registered
// kind@version with its JSON-Schema, so clients can introspect and validate
// before submitting; a bare kind in an envelope resolves to the latest
// version, "kind@vN" pins one, and submissions whose spec document doesn't
// match the resolved version's schema are rejected with 422 and a
// JSON-pointer path. POST /v2/batch submits up to 256 envelopes in one
// round-trip with per-item handles/errors, and POST /v2/games registers a
// game that learn_sweep specs can reference by "game_id". A session:
//
//	curl -X POST :8372/v2/jobs -d '{"kind":"learn_sweep","seed":11,"spec":{"gen":{"Miners":8,"Coins":3},"runs":50}}'
//	curl :8372/v2/jobs/h-1                    # poll the handle
//	curl -N :8372/v2/jobs/h-1/events          # SSE: "progress" events, then one "end"
//	curl :8372/v2/jobs/h-1/result
//	curl -X DELETE :8372/v2/jobs/h-1          # release the handle
//
// POST /v2/jobs returns a per-client *handle* (h-N), not a raw job id.
// Identical submissions deduplicate onto one underlying job, and each
// handle is one client's reference-counted claim on it: DELETE releases
// only the caller's interest, and the shared job is canceled only when its
// last handle is released — one client's cancel cannot kill another
// client's computation.
//
// The full endpoint reference is in internal/server. Results are cached by
// (canonical spec, seed): identical submissions are answered instantly, and
// the cache is sound because every job is a deterministic function of the
// two. On SIGINT/SIGTERM the listener drains in-flight requests, then
// running jobs are canceled.
//
// With -keys FILE the server runs multi-tenant: every job endpoint requires
// an API key ("Authorization: Bearer" or "X-API-Key") resolving to a client
// identity from the keyring file, submissions are attributed and rate
// limited per client (-rate/-burst, over-rate answered 429 + Retry-After),
// -max-share caps any one client's slice of in-flight work cost while
// others wait, and an envelope's optional "priority" ("low"/"normal"/
// "high") weights the fair-share scheduler without preemption. Admission
// control changes WHO runs WHEN, never results: results stay a pure
// function of (canonical spec, seed), cached and deduplicated across
// clients. /healthz and GET /v2/specs stay open.
//
// With -data DIR the cache is durable: games, job records, results, and v2
// handles are written to an append-only log under DIR and rehydrated on the
// next start — a result computed before a restart is served from cache
// (same bytes, cached:true) afterwards, and jobs that were mid-run when the
// process stopped are resubmitted under their original spec and seed
// (determinism recomputes the identical result). -fail-interrupted marks
// them failed instead, for operators who'd rather nothing recomputes
// without an explicit resubmission. Without -data, everything is in-memory
// exactly as before.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gameofcoins/internal/dist"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gocserve:", err)
		os.Exit(1)
	}
}

// run parses args and serves until ctx is canceled; -version prints to
// stdout and returns at once.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gocserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8372", "listen address")
	workers := fs.Int("workers", 0, "engine worker count (0 = all cores)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period")
	dataDir := fs.String("data", "", "persist games, jobs, and results to this directory (empty = in-memory only)")
	failInterrupted := fs.Bool("fail-interrupted", false, "on restart, mark jobs that were mid-run as failed instead of resubmitting them")
	leaseTTL := fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "how long a remote worker may go silent before its leased tasks are requeued")
	leaseTasks := fs.Int("lease-tasks", dist.DefaultMaxLeaseTasks, "max tasks per remote worker lease")
	leaseTarget := fs.Float64("lease-target-ms", dist.DefaultTargetLeaseMillis, "target predicted wall-clock per lease once task latency is observed")
	keysFile := fs.String("keys", "", "API keyring file (\"client:key\" per line); when set, job endpoints require a key and submissions are attributed per client")
	rate := fs.Float64("rate", 0, "per-client submission rate limit in jobs/sec (0 = unlimited; without -keys every caller shares one anonymous bucket, so one noisy client can exhaust it for all)")
	burst := fs.Int("burst", 0, "submission burst allowance per client (defaults to max(2*rate, 1))")
	maxShare := fs.Float64("max-share", 0, "per-client cap on the share of in-flight work cost, in (0,1); enforced only while other clients are waiting (0 = uncapped)")
	compactRanges := fs.Int("compact-ranges", 0, fmt.Sprintf("per-job cap on persisted streamed-result documents (0 = default %d, negative = unbounded)", store.DefaultMaxRangeDocs))
	version := fs.Bool("version", false, "print the server version and catalog fingerprint, then exit")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "Usage: gocserve [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(out, `
API (self-describing, versioned spec envelopes):
  GET    /v2/specs                full catalog: kinds@versions + JSON schemas
                                  + the catalog fingerprint
  GET    /v2/specs/{kind}         one entry ("kind" = latest, "kind@vN" pins)
  POST   /v2/jobs                 {"kind","seed","spec"} -> per-client handle;
                                  schema mismatches are 422 with a JSON-pointer
                                  "path" into the spec document
  POST   /v2/batch                {"jobs":[envelope,...]} (<= 256) -> per-item
                                  handles/errors, in request order; the rate
                                  limit is charged per item, so a partial
                                  throttle 429s only the items past the
                                  budget, each with a "retry_after" hint
  GET    /v2/jobs/{h}             poll the handle's job status
  GET    /v2/jobs/{h}/events      SSE progress stream, then one "end" event
                                  (reconnect with Last-Event-ID to skip
                                  already-seen progress)
  GET    /v2/jobs/{h}/result      fetch the finished job's result
  DELETE /v2/jobs/{h}             release the handle; the deduplicated job is
                                  canceled only when its last handle is gone
  POST   /v2/games                register a game (core.Game JSON) -> {"id"},
                                  referenced from learn_sweep as "game_id"
  GET    /v2/games/{id}           fetch a registered game
  GET    /healthz                 liveness, version, catalog fingerprint, and
                                  engine/dist/traffic counters

Example:
  curl -X POST :8372/v2/jobs -d '{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":5,"Coins":2},"games":500}}'
  curl -N :8372/v2/jobs/h-1/events

Persistence:
  gocserve -data /var/lib/gocserve    # games, jobs, results, and handles are
                                      # logged to DIR and rehydrated on restart;
                                      # interrupted jobs resubmit (deterministic,
                                      # so results are byte-identical) unless
                                      # -fail-interrupted is set

Admission control (multi-tenant):
  gocserve -keys keys.txt -rate 5 -burst 10 -max-share 0.5
  keys.txt holds one "client:key" per line; submissions then require the key
  ("Authorization: Bearer <key>" or "X-API-Key: <key>"), are rate limited per
  client (429 + Retry-After), and fair-share scheduling weighs the envelope's
  "priority" ("low"/"normal"/"high"). /healthz reports per-client counters.

Distributed execution:
  Remote gocworker processes join over /dist/join (refused with 409 unless
  their catalog fingerprint matches), lease task ranges of running jobs, and
  stream results back; a worker that dies mid-lease costs only its in-flight
  range (requeued after -lease-ttl), and results are byte-identical however
  tasks are distributed. The fleet is visible in /healthz under "dist".
  gocworker -coordinator http://host:8372
`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		// The same identity /healthz serves, for offline use: the catalog
		// fingerprint hashes the registered kinds@versions, so two binaries
		// printing the same line accept the same wire surface.
		fmt.Fprintf(stdout, "gocserve %s (%s) catalog %s (%d kinds)\n",
			server.Version, runtime.Version(), engine.CatalogFingerprint(), len(engine.SpecKinds()))
		return nil
	}

	opts := server.Options{
		FailInterrupted: *failInterrupted,
		Dist: dist.Config{
			LeaseTTL:          *leaseTTL,
			MaxLeaseTasks:     *leaseTasks,
			TargetLeaseMillis: *leaseTarget,
		},
	}
	if *keysFile != "" || *rate > 0 || *maxShare > 0 {
		tc := traffic.Config{Rate: *rate, Burst: *burst, MaxShare: *maxShare}
		if tc.Burst == 0 && tc.Rate > 0 {
			// Default burst: a couple of seconds of headroom at the
			// configured rate, so well-behaved clients never see a 429 for
			// an isolated back-to-back pair of submissions.
			tc.Burst = max(int(2*tc.Rate), 1)
		}
		if *keysFile != "" {
			kr, err := traffic.LoadKeyring(*keysFile)
			if err != nil {
				return err
			}
			tc.Keyring = kr
			fmt.Fprintf(os.Stderr, "gocserve: admission control on for %d clients (rate=%g/s burst=%d max-share=%g)\n",
				kr.Len(), tc.Rate, tc.Burst, tc.MaxShare)
		} else {
			fmt.Fprintf(os.Stderr, "gocserve: rate limiting without -keys applies one shared anonymous bucket\n")
		}
		opts.Traffic = traffic.New(tc)
	}
	if *dataDir != "" {
		st, err := store.OpenFile(*dataDir)
		if err != nil {
			return err
		}
		st.MaxRangeDocs = *compactRanges
		// Closed after shutdown below, so terminal records from the last
		// finishing jobs can still land in the log.
		defer st.Close()
		opts.Store = st
		fmt.Fprintf(os.Stderr, "gocserve: persisting to %s\n", *dataDir)
	}
	api, err := server.NewWithOptions(*workers, opts)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "gocserve: listening on %s (workers=%d)\n", *addr, *workers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting and drain requests while canceling
	// jobs. The cancel must run concurrently with the drain, not after it —
	// an open SSE /events stream only ends when its job reaches a terminal
	// state, so draining first would burn the whole grace period and exit
	// non-zero whenever a watcher is connected.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(shutdownCtx) }()
	api.Close()
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "gocserve: drained and stopped")
	return nil
}
