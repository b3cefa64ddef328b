package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// sleepSpec is the test workload: Tasks deterministic tasks, each drawing
// from its forked rng stream (so a mis-forked remote would produce different
// bytes) and optionally sleeping, so leases stay grantable while local
// workers drain. Registered like any real spec — the full wire path (decode
// through the registry on the "remote" side, TaskCoder round-trip) is
// exercised, not a shortcut.
type sleepSpec struct {
	NTasks  int `json:"tasks"`
	DelayUS int `json:"delay_us,omitempty"`
}

type sleepTask struct {
	Index int     `json:"index"`
	U     uint64  `json:"u"`
	F     float64 `json:"f"`
}

func (s sleepSpec) Kind() string { return "dist_test_sleep" }
func (s sleepSpec) Tasks() int   { return s.NTasks }

func (s sleepSpec) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	if s.DelayUS > 0 {
		t := time.NewTimer(time.Duration(s.DelayUS) * time.Microsecond)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return sleepTask{Index: i, U: r.Uint64(), F: r.Float64()}, nil
}

func (s sleepSpec) Aggregate(results []any) (any, error) {
	out := make([]sleepTask, len(results))
	for i, r := range results {
		t, ok := r.(sleepTask)
		if !ok {
			return nil, fmt.Errorf("task %d: unexpected result type %T", i, r)
		}
		out[i] = t
	}
	return out, nil
}

func (s sleepSpec) EncodeTaskResult(res any) (json.RawMessage, error) { return json.Marshal(res) }

func (s sleepSpec) DecodeTaskResult(raw json.RawMessage) (any, error) {
	var v sleepTask
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

func init() {
	engine.RegisterSpec("dist_test_sleep", 1, func(raw json.RawMessage) (engine.Spec, error) {
		var s sleepSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return s, nil
	}, nil)
}

const testKind = "dist_test_sleep@v1"

// submitDistributable submits spec as a distributable job, the way the
// server does: canonical spec document + pinned wire kind + seed.
func submitDistributable(t *testing.T, mgr *engine.Manager, spec sleepSpec, seed uint64) *engine.Job {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	job, err := mgr.SubmitJobOpts("", spec, seed, engine.SubmitOptions{Remote: &engine.RemoteInfo{WireKind: testKind, Spec: raw, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// reference computes the single-machine, one-worker result bytes for spec.
func reference(t *testing.T, spec sleepSpec, seed uint64) []byte {
	t.Helper()
	res, err := engine.New(1).Run(context.Background(), spec, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func waitResultJSON(t *testing.T, job *engine.Job) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	res, ok := job.Result()
	if !ok {
		t.Fatalf("job finished without a result: %+v", job.Status())
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestJoinFingerprintMismatch(t *testing.T) {
	coord := New(engine.New(1), Config{})
	defer coord.Close()

	if _, err := coord.Join(JoinRequest{Name: "drifted", Fingerprint: "bogus"}); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("drifted join: got %v, want ErrFingerprint", err)
	}
	resp, err := coord.Join(JoinRequest{Name: "ok", Fingerprint: engine.CatalogFingerprint()})
	if err != nil {
		t.Fatalf("matching join: %v", err)
	}
	if resp.WorkerID == "" {
		t.Fatal("matching join assigned no worker ID")
	}
	if st := coord.Stats(); st.RejectedJoins != 1 {
		t.Fatalf("RejectedJoins = %d, want 1", st.RejectedJoins)
	}
}

// TestLeaseExpiryRequeues kills a worker the hard way: a lease is granted
// and simply never reported (SIGKILL semantics). The sweep must expire it,
// requeue the range, and the job must still finish byte-identically.
func TestLeaseExpiryRequeues(t *testing.T) {
	spec := sleepSpec{NTasks: 48, DelayUS: 2000}
	const seed = 7
	want := reference(t, spec, seed)

	eng := engine.New(2)
	mgr := engine.NewManager(eng)
	defer mgr.Close()
	coord := New(eng, Config{LeaseTTL: 50 * time.Millisecond, MaxLeaseTasks: 8})
	defer coord.Close()

	join, err := coord.Join(JoinRequest{Name: "doomed", Fingerprint: coord.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	job := submitDistributable(t, mgr, spec, seed)

	// Grab a lease while the local pool is still draining, then go silent.
	var lease *Lease
	for range 200 {
		lease, err = coord.Lease(LeaseRequest{WorkerID: join.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if lease != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lease == nil {
		t.Fatal("never granted a lease while the job had pending work")
	}
	if len(lease.Tasks) == 0 || len(lease.Tasks) > 8 {
		t.Fatalf("lease of %d tasks, want 1..8", len(lease.Tasks))
	}

	got := waitResultJSON(t, job)
	if string(got) != string(want) {
		t.Fatalf("result after lease expiry diverged from reference\n got: %s\nwant: %s", got, want)
	}
	st := coord.Stats()
	if st.Expired == 0 {
		t.Fatalf("stats show no expired lease: %+v", st)
	}
	if st.Requeued < uint64(len(lease.Tasks)) {
		t.Fatalf("Requeued = %d, want >= %d", st.Requeued, len(lease.Tasks))
	}
}

// TestDuplicateReport replays the same results twice: the first report
// publishes, the duplicate is absorbed (Accepted 0), and a report after the
// final Done gets ErrUnknownLease.
func TestDuplicateReport(t *testing.T) {
	spec := sleepSpec{NTasks: 32, DelayUS: 2000}
	const seed = 11
	want := reference(t, spec, seed)

	eng := engine.New(1)
	mgr := engine.NewManager(eng)
	defer mgr.Close()
	coord := New(eng, Config{LeaseTTL: 10 * time.Second, MaxLeaseTasks: 6})
	defer coord.Close()

	join, err := coord.Join(JoinRequest{Fingerprint: coord.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	job := submitDistributable(t, mgr, spec, seed)

	var lease *Lease
	for range 200 {
		if lease, err = coord.Lease(LeaseRequest{WorkerID: join.WorkerID}); err != nil {
			t.Fatal(err)
		}
		if lease != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lease == nil {
		t.Fatal("never granted a lease")
	}

	// Compute the leased range exactly as a worker would.
	base := rng.New(lease.Seed)
	dspec, err := engine.DecodeSpec(lease.Kind, lease.Spec)
	if err != nil {
		t.Fatal(err)
	}
	coder := dspec.(engine.TaskCoder)
	var results []TaskResult
	for _, task := range lease.Tasks {
		out, err := dspec.RunTask(context.Background(), task, base.Fork(uint64(task)))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := coder.EncodeTaskResult(out)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, TaskResult{Index: task, Result: enc})
	}

	resp, err := coord.Report(ReportRequest{WorkerID: join.WorkerID, LeaseID: lease.ID, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(lease.Tasks) {
		t.Fatalf("first report: Accepted = %d, want %d", resp.Accepted, len(lease.Tasks))
	}

	resp, err = coord.Report(ReportRequest{WorkerID: join.WorkerID, LeaseID: lease.ID, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Duplicates != len(lease.Tasks) {
		t.Fatalf("duplicate report: Accepted = %d, Duplicates = %d, want 0, %d",
			resp.Accepted, resp.Duplicates, len(lease.Tasks))
	}

	if _, err = coord.Report(ReportRequest{WorkerID: join.WorkerID, LeaseID: lease.ID, Done: true}); err != nil {
		t.Fatal(err)
	}
	if _, err = coord.Report(ReportRequest{WorkerID: join.WorkerID, LeaseID: lease.ID, Done: true}); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("report after Done: got %v, want ErrUnknownLease", err)
	}

	got := waitResultJSON(t, job)
	if string(got) != string(want) {
		t.Fatalf("result with duplicate reports diverged from reference\n got: %s\nwant: %s", got, want)
	}
}

// TestAbandonRequeues cancels a live Runner mid-lease (SIGINT semantics): it
// abandons gracefully and the coordinator requeues immediately — the job
// finishes without waiting out the TTL.
func TestAbandonRequeues(t *testing.T) {
	spec := sleepSpec{NTasks: 64, DelayUS: 2000}
	const seed = 3
	want := reference(t, spec, seed)

	eng := engine.New(2)
	mgr := engine.NewManager(eng)
	defer mgr.Close()
	// A TTL far beyond the test's runtime: if the job only finishes because
	// the sweep expired the lease, waitResultJSON times out instead.
	coord := New(eng, Config{LeaseTTL: 5 * time.Minute, MaxLeaseTasks: 16, PollInterval: time.Millisecond})
	defer coord.Close()

	rctx, rcancel := context.WithCancel(context.Background())
	runnerDone := make(chan error, 1)
	runner := &Runner{Transport: Local(coord), Name: "graceful", Workers: 1}
	go func() { runnerDone <- runner.Run(rctx) }()

	job := submitDistributable(t, mgr, spec, seed)

	// Wait until the runner holds a lease, then "SIGINT" it.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().Granted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never took a lease")
		}
		time.Sleep(time.Millisecond)
	}
	rcancel()
	if err := <-runnerDone; err != nil {
		t.Fatalf("runner exit: %v", err)
	}

	got := waitResultJSON(t, job)
	if string(got) != string(want) {
		t.Fatalf("result after abandon diverged from reference\n got: %s\nwant: %s", got, want)
	}
}

// killableTransport simulates a worker that is SIGKILL'd the moment it
// receives its first lease: every subsequent call — including the reports
// that would have returned its results — fails. Recovery must come from the
// lease deadline alone.
type killableTransport struct {
	inner Transport
	mu    sync.Mutex
	dead  bool
}

var errKilled = errors.New("dist_test: worker killed")

func (k *killableTransport) killed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.dead
}

func (k *killableTransport) Join(req JoinRequest) (JoinResponse, error) {
	if k.killed() {
		return JoinResponse{}, errKilled
	}
	return k.inner.Join(req)
}

func (k *killableTransport) Lease(req LeaseRequest) (*Lease, error) {
	if k.killed() {
		return nil, errKilled
	}
	l, err := k.inner.Lease(req)
	if l != nil {
		k.mu.Lock()
		k.dead = true
		k.mu.Unlock()
	}
	return l, err
}

func (k *killableTransport) Report(rep ReportRequest) (ReportResponse, error) {
	if k.killed() {
		return ReportResponse{}, errKilled
	}
	return k.inner.Report(rep)
}

// TestDistributedDeterminism is the property test: over {lease size × remote
// worker count × mid-job worker kill}, the distributed result must be
// byte-identical to the single-machine, one-worker reference.
func TestDistributedDeterminism(t *testing.T) {
	spec := sleepSpec{NTasks: 60, DelayUS: 1000}
	const seed = 42
	want := reference(t, spec, seed)

	for _, leaseSize := range []int{1, 8, 64} {
		for _, workers := range []int{1, 3} {
			for _, kill := range []bool{false, true} {
				name := fmt.Sprintf("lease=%d/workers=%d/kill=%v", leaseSize, workers, kill)
				t.Run(name, func(t *testing.T) {
					eng := engine.New(2)
					mgr := engine.NewManager(eng)
					defer mgr.Close()
					coord := New(eng, Config{
						LeaseTTL:      60 * time.Millisecond,
						MaxLeaseTasks: leaseSize,
						PollInterval:  time.Millisecond,
					})
					defer coord.Close()

					rctx, rcancel := context.WithCancel(context.Background())
					defer rcancel()
					for w := range workers {
						transport := Transport(Local(coord))
						if kill && w == 0 {
							transport = &killableTransport{inner: transport}
						}
						r := &Runner{Transport: transport, Name: fmt.Sprintf("w%d", w), Workers: 1}
						go r.Run(rctx)
					}

					job := submitDistributable(t, mgr, spec, seed)
					got := waitResultJSON(t, job)
					if string(got) != string(want) {
						t.Fatalf("distributed result diverged from reference\n got: %s\nwant: %s", got, want)
					}
				})
			}
		}
	}
}
