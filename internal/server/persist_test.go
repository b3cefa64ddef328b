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
// kind (typed result codec) and a custom kind with no codec (raw-JSON
// round-trip). Games and v2 handles survive too.
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

	// …and a custom kind (no result codec registered).
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
// document no longer decodes (a result codec changed across an upgrade) is
// recomputed from its spec and seed instead of being destroyed — the same
// recovery path interrupted jobs take.
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
	key, err := engine.CacheKey(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.JobRecord{ID: "job-1", Key: key, Kind: spec.Kind(), Seed: 3, Tasks: 5,
		Spec: raw, State: store.JobDone,
		Result: json.RawMessage(`{"games":"not-an-int"}`)} // rejected by the codec
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.PutHandle("h-1", "job-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	p := openPersistent(t, dir, false)
	final := waitHandleTerminal(t, p.URL, "h-1")
	if final.ID != "job-1" || final.State != engine.StateDone {
		t.Fatalf("unreadable-result job ended %+v, want job-1 recomputed done", final)
	}
	var res struct {
		Result engine.EquilibriumSweepResult `json:"result"`
	}
	if err := json.Unmarshal(rawGet(t, p.URL+"/v2/jobs/h-1/result"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Result.Games != 5 {
		t.Fatalf("recomputed result = %+v", res.Result)
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
