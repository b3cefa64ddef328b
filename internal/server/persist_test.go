// Persistence tests: restart recovery through a real file-backed store, the
// release/resubmit race regression, and the submit error-mapping surface.
// External test package like v2_test.go, so the server is exercised through
// its public constructors and the client SDK.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
)

// stubbornSpec blocks its tasks on a per-Name latch and deliberately
// ignores ctx — the shape of a task deep in a compute kernel that cannot
// observe cancellation mid-step. Cancel leaves the job non-terminal until
// the gate opens, which is exactly the window the release race needs.
type stubbornSpec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func (s stubbornSpec) Kind() string { return "test_stubborn" }
func (s stubbornSpec) Tasks() int   { return s.N }
func (s stubbornSpec) RunTask(_ context.Context, i int, _ *rng.Rand) (any, error) {
	<-gateChan(s.Name)
	return i, nil
}
func (s stubbornSpec) Aggregate(results []any) (any, error) { return len(results), nil }

// badMarshalSpec decodes from the wire fine but cannot re-encode: the
// canonical-JSON step fails, which must surface as a 500 (server fault),
// not the 400 every other submit failure maps to.
type badMarshalSpec struct{}

func (badMarshalSpec) Kind() string { return "test_badmarshal" }
func (badMarshalSpec) Tasks() int   { return 1 }
func (badMarshalSpec) RunTask(_ context.Context, i int, _ *rng.Rand) (any, error) {
	return i, nil
}
func (badMarshalSpec) Aggregate(results []any) (any, error) { return len(results), nil }
func (badMarshalSpec) MarshalJSON() ([]byte, error) {
	return nil, errors.New("deliberately unmarshalable")
}

func init() {
	engine.RegisterSpec("test_stubborn", 1, engine.DecodeJSON[stubbornSpec](), nil)
	engine.RegisterSpec("test_badmarshal", 1, func(json.RawMessage) (engine.Spec, error) {
		return badMarshalSpec{}, nil
	}, nil)
}

// TestReleaseRetractsCacheEntry is the regression test for the
// cancel/resubmit race: releasing a job's last handle must retract the
// job's cache entries in the same critical section that cancels it. If the
// entry were only retracted by the asynchronous goroutine that follows the
// job to its terminal state, an identical submission racing the cancel
// would attach to the dying job and receive a canceled, resultless job.
func TestReleaseRetractsCacheEntry(t *testing.T) {
	srv, base := v2ServerWith(t)
	c := client.New(base)
	ctx := context.Background()

	spec := stubbornSpec{Name: "cancelrace-" + strconv.Itoa(time.Now().Nanosecond()), N: 1}
	defer openGate(spec.Name)
	h1, err := c.Submit(ctx, "test_stubborn", 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobID := h1.Submitted.Status.ID

	// Release the only handle, which cancels the job. The task ignores ctx,
	// so the job is canceled but still non-terminal — deterministically
	// inside the race window.
	if err := h1.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := srv.JobStatus(jobID); err != nil || st.State.Terminal() {
		t.Fatalf("stubborn job after release: %+v, %v (want canceled but still running)", st, err)
	}

	// An identical submission must NOT attach to the dying job.
	h2, err := c.Submit(ctx, "test_stubborn", 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Submitted.Cached || h2.Submitted.Status.ID == jobID {
		t.Fatalf("identical submission attached to the canceled job: %+v", h2.Submitted)
	}

	// The fresh job computes a real result once unblocked.
	openGate(spec.Name)
	st, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != engine.StateDone {
		t.Fatalf("fresh job ended %s", st.State)
	}
	var n int
	if err := h2.Result(ctx, &n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("result = %d, want 1", n)
	}
}

// TestSubmitErrorMapping: client mistakes stay 400; internal encoding
// failures are 500.
func TestSubmitErrorMapping(t *testing.T) {
	base := v2Server(t)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"v2_unknown_kind", "/v2/jobs", `{"kind":"bogus","seed":1}`, http.StatusBadRequest},
		{"v2_invalid_spec", "/v2/jobs", `{"kind":"equilibrium_sweep","seed":1,"spec":{"games":0}}`, http.StatusBadRequest},
		{"v2_unknown_game", "/v2/jobs", `{"kind":"learn_sweep","seed":1,"spec":{"game_id":"g-nope","runs":3}}`, http.StatusBadRequest},
		{"v2_marshal_failure", "/v2/jobs", `{"kind":"test_badmarshal","seed":1}`, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body undecodable: %v %+v", err, e)
			}
		})
	}
}

// failingJobStore is a file store whose job-record writes fail.
type failingJobStore struct{ *store.File }

func (failingJobStore) PutJob(store.JobRecord) error { return errors.New("disk full") }

// TestHealthzCountsPersistFailures: a store write that fails does not fail
// the job, whose result is served from memory, and /healthz counts the
// failure and shows its error.
func TestHealthzCountsPersistFailures(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := server.NewWithOptions(2, server.Options{Store: failingJobStore{st}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer s.Close()
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New(ts.URL)
	h, err := c.SubmitEquilibriumSweep(ctx, engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := h.Wait(ctx); err != nil || status.State != engine.StateDone {
		t.Fatalf("job ended %+v, %v; want done", status, err)
	}
	var res engine.EquilibriumSweepResult
	if err := h.Result(ctx, &res); err != nil || res.Games != 3 {
		t.Fatalf("result %+v, %v; want 3 games", res, err)
	}
	var hz struct {
		Failures  uint64 `json:"persist_failures"`
		LastError string `json:"persist_last_error"`
	}
	for hz.Failures == 0 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if hz.Failures == 0 || hz.LastError != "disk full" {
		t.Fatalf("healthz persist_failures = %d, persist_last_error = %q; want a count and \"disk full\"", hz.Failures, hz.LastError)
	}
}

// ---- restart recovery ----

// persistentServer opens (or reopens) a server on the given data directory.
// Shutdown order mirrors gocserve: listener, server, then store.
type persistentServer struct {
	s   *server.Server
	ts  *httptest.Server
	st  *store.File
	URL string
}

func openPersistent(t *testing.T, dir string, failInterrupted bool) *persistentServer {
	t.Helper()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewWithOptions(4, server.Options{Store: st, FailInterrupted: failInterrupted})
	if err != nil {
		t.Fatal(err)
	}
	return servePersistent(t, s, st)
}

// servePersistent puts s, built on st, behind a test listener.
func servePersistent(t *testing.T, s *server.Server, st *store.File) *persistentServer {
	t.Helper()
	ts := httptest.NewServer(s)
	p := &persistentServer{s: s, ts: ts, st: st, URL: ts.URL}
	t.Cleanup(p.shutdown)
	return p
}

func (p *persistentServer) shutdown() {
	if p.ts == nil {
		return
	}
	p.ts.Close()
	p.s.Close()
	p.st.Close()
	p.ts = nil
}

// waitRecordState polls the store until the job's record reaches the given
// state — the terminal record is written asynchronously after the job
// finishes, so tests must not tear the store down before it lands.
func waitRecordState(t *testing.T, st *store.File, jobID, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if rec, ok := snap.Jobs[jobID]; ok && rec.State == state {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never persisted state %q", jobID, state)
}

// TestRestartServesCachedResults: results computed before a shutdown are
// served byte-identically — same job IDs, same bytes, cached:true — after a
// fresh process rehydrates the same data directory, for both a built-in
// kind (its stored result checked against the kind's result schema) and a
// custom kind with no result schema. Games and v2 handles survive too.
func TestRestartServesCachedResults(t *testing.T) {
	dir := t.TempDir()
	p1 := openPersistent(t, dir, false)
	c1 := client.New(p1.URL)
	ctx := context.Background()

	game := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	)
	gameID, err := c1.RegisterGame(ctx, game)
	if err != nil {
		t.Fatal(err)
	}

	// A built-in sweep by game reference…
	learn := engine.LearnSweep{GameID: gameID, Schedulers: []string{"random"}, Runs: 8}
	hl, err := c1.SubmitLearnSweep(ctx, learn, 11)
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, p1.URL, hl.ID())
	learnJobID := hl.Submitted.Status.ID

	// …and a custom kind (no result schema registered).
	h, err := c1.Submit(ctx, "toy_sum", 9, toySpec{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	toyJobID := h.Submitted.Status.ID

	learnBefore := rawGet(t, p1.URL+"/v2/jobs/"+hl.ID()+"/result")
	toyBefore := rawGet(t, p1.URL+"/v2/jobs/"+h.ID()+"/result")

	waitRecordState(t, p1.st, learnJobID, store.JobDone)
	waitRecordState(t, p1.st, toyJobID, store.JobDone)
	p1.shutdown()

	p2 := openPersistent(t, dir, false)

	// The registered game came back.
	var back core.Game
	if err := json.Unmarshal(rawGet(t, p2.URL+"/v2/games/"+gameID), &back); err != nil {
		t.Fatal(err)
	}
	if back.NumMiners() != 3 {
		t.Fatalf("rehydrated game has %d miners", back.NumMiners())
	}

	// Results are served from the rehydrated cache, byte-identical, under
	// the original job IDs, through the pre-restart handles.
	if got := rawGet(t, p2.URL+"/v2/jobs/"+hl.ID()+"/result"); !bytes.Equal(got, learnBefore) {
		t.Fatalf("learn result differs after restart:\n%s\n%s", got, learnBefore)
	}
	if got := rawGet(t, p2.URL+"/v2/jobs/"+h.ID()+"/result"); !bytes.Equal(got, toyBefore) {
		t.Fatalf("toy result differs after restart:\n%s\n%s", got, toyBefore)
	}

	// Identical resubmissions hit the rehydrated cache, flagged as such —
	// the game reference resolves against the rehydrated registry.
	c2 := client.New(p2.URL)
	hl2, err := c2.SubmitLearnSweep(ctx, learn, 11)
	if err != nil {
		t.Fatal(err)
	}
	if st := hl2.Submitted; !st.Cached || st.Status.ID != learnJobID || st.State != engine.StateDone {
		t.Fatalf("learn resubmit after restart missed the cache: %+v", st)
	}
	h2, err := c2.Submit(ctx, "toy_sum", 9, toySpec{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Submitted.Cached || h2.Submitted.Status.ID != toyJobID {
		t.Fatalf("toy resubmit after restart missed the cache: %+v", h2.Submitted)
	}
}

// TestDoneJobDropsItsRun: once a done learn_sweep job's record lands, the
// store's log is the only copy of its documents — its ledger holds no run,
// only their count, so ResultRange reports engine.ErrRangeStored — and
// ?range= serves every span with the bytes that a server without a store,
// which keeps the run, serves, before and after a restart. Once the store
// has evicted the job's documents, its spans answer 410.
func TestDoneJobDropsItsRun(t *testing.T) {
	ctx := context.Background()
	learn := engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Schedulers: []string{"random"}, Runs: 12}
	n := learn.Tasks()
	plain, plainURL := v2ServerWith(t)
	ref, err := client.New(plainURL).SubmitLearnSweep(ctx, learn, 5)
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, plainURL, ref.ID())
	if _, err := plain.JobRange(ref.Submitted.Status.ID, 0, n); err != nil {
		t.Fatalf("without a store the done job's ledger lost its run: %v", err)
	}
	spanURL := func(base, handle string, lo, hi int) string {
		return fmt.Sprintf("%s/v2/jobs/%s/result?range=%d-%d", base, handle, lo, hi)
	}
	want := map[[2]int]string{}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			want[[2]int{lo, hi}] = string(rawGet(t, spanURL(plainURL, ref.ID(), lo, hi)))
		}
	}
	spans := func(base, handle string) {
		t.Helper()
		for span, body := range want {
			if got := string(rawGet(t, spanURL(base, handle, span[0], span[1]))); got != body {
				t.Fatalf("range %v = %s, without a store %s", span, got, body)
			}
		}
	}

	dir := t.TempDir()
	p1 := openPersistent(t, dir, false)
	h, err := client.New(p1.URL).SubmitLearnSweep(ctx, learn, 5)
	if err != nil {
		t.Fatal(err)
	}
	if id := h.Submitted.Status.ID; id != ref.Submitted.Status.ID {
		t.Fatalf("the job is %s here and %s without a store", id, ref.Submitted.Status.ID)
	}
	id := h.Submitted.Status.ID
	waitHandleDone(t, p1.URL, h.ID())
	waitRecordState(t, p1.st, id, store.JobDone)
	waitDropped(t, p1.s, id, n)
	spans(p1.URL, h.ID())
	p1.shutdown()

	p2 := openPersistent(t, dir, false)
	if _, err := p2.s.JobRange(id, 0, n); !errors.Is(err, engine.ErrRangeStored) {
		t.Fatalf("the restored job's ledger: %v, want its documents in the store", err)
	}
	spans(p2.URL, h.ID())
	// Records of newer finished jobs push the job's record, and its
	// documents, out of the store; the engine still holds the job.
	for i := range engine.DefaultRetention + engine.DefaultRetention/4 + 1 {
		if err := p2.st.PutJob(store.JobRecord{ID: fmt.Sprintf("job-%d", 1000+i), State: store.JobFailed, Error: "filler"}); err != nil {
			t.Fatal(err)
		}
	}
	if held := p2.st.HeldDocs(id); held != 0 {
		t.Fatalf("the store still holds %d of the evicted job's documents", held)
	}
	if code := getStatusCode(t, spanURL(p2.URL, h.ID(), 0, n)); code != http.StatusGone {
		t.Fatalf("range of a job whose documents the store evicted: status %d, want 410", code)
	}
}

// waitDropped polls until the job's ledger has dropped its run: the drop
// runs on the persist queue after the done record.
func waitDropped(t *testing.T, s *server.Server, jobID string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, err := s.JobRange(jobID, 0, n)
		if errors.Is(err, engine.ErrRangeStored) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never dropped its run", jobID)
}

// docsFail is a file store whose PutJobDocs always fails.
type docsFail struct{ *store.File }

func (docsFail) PutJobDocs(string, engine.Docs) error {
	return errors.New("injected range write failure")
}

// TestFailedDocsWriteKeepsTheRun: a done job whose documents the store
// does not hold keeps its run, and ?range= serves it from memory.
func TestFailedDocsWriteKeepsTheRun(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewWithOptions(2, server.Options{Store: docsFail{st}})
	if err != nil {
		t.Fatal(err)
	}
	p := servePersistent(t, s, st)
	ctx := context.Background()
	learn := engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Schedulers: []string{"random"}, Runs: 6}
	h, err := client.New(p.URL).SubmitLearnSweep(ctx, learn, 5)
	if err != nil {
		t.Fatal(err)
	}
	id := h.Submitted.Status.ID
	waitHandleDone(t, p.URL, h.ID())
	// The release is queued after the drop's check, so once it lands the
	// check has run.
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for snap, err := st.Load(); len(snap.Handles) > 0; snap, err = st.Load() {
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("the release never landed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if docs, err := s.JobRange(id, 0, learn.Tasks()); err != nil || docs.Len() != learn.Tasks() {
		t.Fatalf("a job whose documents the store lacks: ledger %d documents, %v; want its run", docs.Len(), err)
	}
}

// TestRestartResubmitsInterruptedJobs: a job mid-run at shutdown keeps its
// "submitted" record, and the next process life resubmits it under its
// original ID, spec, and seed; pre-restart handles watch it to completion.
func TestRestartResubmitsInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	p1 := openPersistent(t, dir, false)
	c1 := client.New(p1.URL)
	ctx := context.Background()

	spec := gatedSpec{Name: "restart-" + strconv.Itoa(time.Now().Nanosecond()), N: 3}
	defer openGate(spec.Name)
	h, err := c1.Submit(ctx, "test_gated", 5, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobID := h.Submitted.Status.ID
	p1.shutdown() // cancels the running job, but the record stays "submitted"

	p2 := openPersistent(t, dir, false)
	// The job is back under its original ID, running (blocked on the gate),
	// and the pre-restart handle still resolves to it.
	st := handleStatus(t, p2.URL, h.ID())
	if st.ID != jobID {
		t.Fatalf("rehydrated handle points at %s, want %s", st.ID, jobID)
	}
	if st.State.Terminal() {
		t.Fatalf("interrupted job not resubmitted: %+v", st)
	}

	openGate(spec.Name)
	final := waitHandleTerminal(t, p2.URL, h.ID())
	if final.State != engine.StateDone {
		t.Fatalf("recomputed job ended %s: %s", final.State, final.Error)
	}
	var res struct {
		Result int `json:"result"`
	}
	if err := json.Unmarshal(rawGet(t, p2.URL+"/v2/jobs/"+h.ID()+"/result"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Result != spec.N {
		t.Fatalf("recomputed result = %d, want %d", res.Result, spec.N)
	}
}

// TestRestartRecomputesUnreadableResult: a done record whose stored result
// document fails its kind's result schema — a wrong type, or an unknown
// field next to a wrong count, as a hand edit or a changed result shape
// leaves it — is recomputed from its spec and seed instead of being
// destroyed or served as stored: the same recovery path interrupted jobs
// take.
func TestRestartRecomputesUnreadableResult(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 5}
	raw, err := engine.CanonicalSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	stored := []json.RawMessage{
		json.RawMessage(`{"games":"not-an-int"}`),
		json.RawMessage(`{"games":4,"multiple":0,"equilibria_per_game":null,"note":"edited"}`),
	}
	for i, result := range stored {
		seed := uint64(3 + i)
		id := "job-" + strconv.Itoa(i+1)
		rec := store.JobRecord{ID: id, Key: engine.CacheKeyJSON(spec.Kind(), raw, seed), Kind: spec.Kind(),
			Seed: seed, Tasks: 5, Spec: raw, State: store.JobDone, Result: result}
		if err := st.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		if err := st.PutHandle("h-"+strconv.Itoa(i+1), id); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	p := openPersistent(t, dir, false)
	for i := range stored {
		h, id := "h-"+strconv.Itoa(i+1), "job-"+strconv.Itoa(i+1)
		final := waitHandleTerminal(t, p.URL, h)
		if final.ID != id || final.State != engine.StateDone {
			t.Fatalf("unreadable-result job ended %+v, want %s recomputed done", final, id)
		}
		var res struct {
			Result engine.EquilibriumSweepResult `json:"result"`
		}
		if err := json.Unmarshal(rawGet(t, p.URL+"/v2/jobs/"+h+"/result"), &res); err != nil {
			t.Fatal(err)
		}
		if res.Result.Games != 5 {
			t.Fatalf("%s: recomputed result = %+v", id, res.Result)
		}
	}
}

// TestRestartFailInterrupted: with the flag set, an interrupted job is
// marked failed instead of recomputing; its result is Gone and an identical
// resubmission starts a fresh job.
func TestRestartFailInterrupted(t *testing.T) {
	dir := t.TempDir()
	p1 := openPersistent(t, dir, false)
	c1 := client.New(p1.URL)
	ctx := context.Background()

	spec := gatedSpec{Name: "failint-" + strconv.Itoa(time.Now().Nanosecond()), N: 2}
	defer openGate(spec.Name)
	h, err := c1.Submit(ctx, "test_gated", 6, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobID := h.Submitted.Status.ID
	p1.shutdown()

	p2 := openPersistent(t, dir, true)
	st := handleStatus(t, p2.URL, h.ID())
	if st.ID != jobID || st.State != engine.StateFailed || !strings.Contains(st.Error, "interrupted") {
		t.Fatalf("status = %+v, want %s failed/interrupted", st, jobID)
	}
	resp, err := http.Get(p2.URL + "/v2/jobs/" + h.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of failed-interrupted job: %d, want 410", resp.StatusCode)
	}

	// Resubmission is a fresh job, not a cache hit on the corpse.
	c2 := client.New(p2.URL)
	h2, err := c2.Submit(ctx, "test_gated", 6, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Submitted.Cached || h2.Submitted.Status.ID == jobID {
		t.Fatalf("resubmit attached to the failed-interrupted job: %+v", h2.Submitted)
	}
	openGate(spec.Name)
	if st, err := h2.Wait(ctx); err != nil || st.State != engine.StateDone {
		t.Fatalf("fresh job: %+v, %v", st, err)
	}
}
