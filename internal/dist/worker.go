package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// Runner is the worker-side loop: join the coordinator, then lease → execute
// → report until the context ends. gocworker wraps one Runner per process;
// tests run several against an in-process transport.
//
// Execution reuses the engine: each lease becomes a local engine job whose
// task i computes leased task Tasks[i] with rng.New(Seed).Fork(Tasks[i]) —
// the identical stream a coordinator-local worker would fork — so results
// are byte-identical no matter where a task lands. Completed results stream
// back in partial reports on a fraction of the lease TTL, which doubles as
// the heartbeat keeping the lease alive.
type Runner struct {
	// Transport reaches the coordinator; required.
	Transport Transport
	// Name labels this worker in the fleet view; optional.
	Name string
	// Workers is the local engine parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Logf, when set, receives progress lines (gocworker wires log.Printf).
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run joins and serves until ctx is canceled (returning nil) or the
// coordinator refuses the worker's fingerprint (returning ErrFingerprint —
// fatal, since retrying cannot fix a drifted catalog). Transient transport
// failures — coordinator restarting, network blips — are retried with
// exponential backoff; a coordinator restart invalidates the worker ID, and
// the loop transparently re-joins.
func (r *Runner) Run(ctx context.Context) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := engine.New(workers)
	fp := engine.CatalogFingerprint()

	var (
		id   string
		ttl  time.Duration
		poll time.Duration
	)
	join := func() error {
		resp, err := r.Transport.Join(JoinRequest{Name: r.Name, Cores: workers, Fingerprint: fp})
		if err != nil {
			return err
		}
		id = resp.WorkerID
		ttl = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
		if ttl <= 0 {
			ttl = DefaultLeaseTTL
		}
		poll = time.Duration(resp.PollMillis) * time.Millisecond
		if poll <= 0 {
			poll = DefaultPollInterval
		}
		r.logf("joined as %s (ttl %v, poll %v)", id, ttl, poll)
		return nil
	}

	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	retry := func(err error) error {
		if errors.Is(err, ErrFingerprint) {
			return err
		}
		r.logf("transport error (retrying in %v): %v", backoff, err)
		if !sleep(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		if id == "" {
			if err := join(); err != nil {
				if ferr := retry(err); ferr != nil && !errors.Is(ferr, context.Canceled) {
					return ferr
				} else if ferr != nil {
					return nil
				}
				continue
			}
			backoff = 100 * time.Millisecond
		}
		lease, err := r.Transport.Lease(LeaseRequest{WorkerID: id})
		switch {
		case err != nil && errors.Is(err, ErrUnknownWorker):
			// Coordinator restarted or expired us: re-join.
			id = ""
			continue
		case err != nil:
			if ferr := retry(err); ferr != nil {
				if errors.Is(ferr, context.Canceled) {
					return nil
				}
				return ferr
			}
			continue
		case lease == nil:
			if !sleep(ctx, poll) {
				return nil
			}
			continue
		}
		backoff = 100 * time.Millisecond
		r.executeLease(ctx, eng, id, ttl, lease)
	}
}

// sleep waits d or until ctx ends; reports false on cancellation.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// executeLease runs one leased range on the local engine, streaming results
// back at a third of the lease TTL. All terminal outcomes report: Done on
// success, Abandon on local shutdown or local decode trouble (the
// coordinator requeues; someone else computes the range), Error on a task
// error (deterministic — the coordinator fails the job).
func (r *Runner) executeLease(ctx context.Context, eng *engine.Engine, workerID string, ttl time.Duration, lease *Lease) {
	// lease.Kind is the job's PinnedKind, so the lease decodes under the
	// version the job resolved to, whatever this registry's latest is.
	rs, err := engine.ResolveEnvelope(engine.JobEnvelope{Kind: lease.Kind, Seed: lease.Seed, Spec: lease.Spec})
	spec := rs.Spec
	coder, _ := spec.(engine.TaskCoder)
	if err != nil || coder == nil {
		// The fingerprint handshake makes this unreachable short of a bug;
		// abandoning (instead of erroring) keeps a worker-local problem from
		// failing the job — the coordinator recomputes the range itself.
		r.logf("lease %s: cannot decode %s spec locally (%v); abandoning", lease.ID, lease.Kind, err)
		r.report(ReportRequest{WorkerID: workerID, LeaseID: lease.ID, Abandon: true})
		return
	}

	lctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Completed results accumulate under mu; the flusher goroutine drains
	// them into partial reports, which also serve as heartbeats.
	var (
		mu      sync.Mutex
		pending []TaskResult
	)
	drain := func() []TaskResult {
		mu.Lock()
		out := pending
		pending = nil
		mu.Unlock()
		return out
	}
	giveBack := func(batch []TaskResult) {
		mu.Lock()
		pending = append(batch, pending...)
		mu.Unlock()
	}

	heartbeat := ttl / 3
	if heartbeat < 10*time.Millisecond {
		heartbeat = 10 * time.Millisecond
	}
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-lctx.Done():
				return
			case <-t.C:
			}
			batch := drain()
			resp, err := r.Transport.Report(ReportRequest{WorkerID: workerID, LeaseID: lease.ID, Results: batch})
			switch {
			case err != nil && errors.Is(err, ErrUnknownLease):
				// The coordinator expired us (or restarted): the range is
				// someone else's now. Stop computing it.
				r.logf("lease %s: gone at coordinator; dropping", lease.ID)
				cancel()
				return
			case err != nil:
				// Transient: keep the results for the next beat.
				giveBack(batch)
			case resp.Closed:
				cancel()
				return
			}
		}
	}()

	base := rng.New(lease.Seed)
	job := engine.Func{
		Name: lease.Kind,
		N:    len(lease.Tasks),
		Task: func(tctx context.Context, i int, r *rng.Rand) (any, error) {
			task := lease.Tasks[i]
			// Re-seed the engine worker's generator, which this call owns
			// until it returns, to the job-global stream of the *leased*
			// index — identical to what a coordinator-local worker forks —
			// not the lease-local index the wrapping Func handed it.
			base.ForkInto(r, uint64(task))
			out, err := spec.RunTask(tctx, task, r)
			if err != nil {
				return nil, fmt.Errorf("task %d: %w", task, err)
			}
			enc, err := coder.EncodeTaskResult(out)
			if err != nil {
				return nil, fmt.Errorf("task %d: encode: %w", task, err)
			}
			mu.Lock()
			pending = append(pending, TaskResult{Index: task, Result: enc})
			mu.Unlock()
			return nil, nil
		},
	}
	_, runErr := eng.Run(lctx, job, 0, nil)

	cancel()
	<-flusherDone
	rest := drain()

	switch {
	case runErr == nil:
		r.report(ReportRequest{WorkerID: workerID, LeaseID: lease.ID, Results: rest, Done: true})
		r.logf("lease %s: completed %d tasks", lease.ID, len(lease.Tasks))
	case ctx.Err() != nil:
		// Local shutdown: return what we finished plus the range itself.
		r.report(ReportRequest{WorkerID: workerID, LeaseID: lease.ID, Results: rest, Abandon: true})
	case lctx.Err() != nil && errors.Is(runErr, context.Canceled):
		// The flusher learned the lease is gone; nothing more to say.
	default:
		r.report(ReportRequest{WorkerID: workerID, LeaseID: lease.ID, Results: rest, Error: runErr.Error()})
		r.logf("lease %s: task error: %v", lease.ID, runErr)
	}
}

// report fires a best-effort report; failures only log (the lease deadline
// is the backstop for anything a lost report leaves dangling).
func (r *Runner) report(rep ReportRequest) {
	if _, err := r.Transport.Report(rep); err != nil && !errors.Is(err, ErrUnknownLease) {
		r.logf("lease %s: report failed: %v", rep.LeaseID, err)
	}
}
