package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/replay"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(4)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %v", method, url, resp.StatusCode, wantCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// envelope is the POST /v2/jobs body for spec under kind and seed.
func envelope(t *testing.T, kind string, seed uint64, spec any) engine.JobEnvelope {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return engine.JobEnvelope{Kind: kind, Seed: seed, Spec: raw}
}

// pollUntilTerminal polls a handle until its job reaches a terminal state.
func pollUntilTerminal(t *testing.T, base, handle string) engine.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var jh JobHandle
		doJSON(t, http.MethodGet, base+"/v2/jobs/"+handle, nil, http.StatusOK, &jh)
		if jh.State.Terminal() {
			return jh.Status
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return engine.Status{}
}

func quickstartGame() *core.Game {
	return core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}, {Name: "p4", Power: 2}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	)
}

// TestFullRoundTrip drives the whole intended flow: register a game, submit
// a learning sweep on it, poll status, fetch the result, and hit the result
// cache on resubmission.
func TestFullRoundTrip(t *testing.T) {
	_, ts := testServer(t)

	// Create the quick-start game.
	var created struct {
		ID     string `json:"id"`
		Miners int    `json:"miners"`
		Coins  int    `json:"coins"`
	}
	doJSON(t, http.MethodPost, ts.URL+"/v2/games", quickstartGame(), http.StatusCreated, &created)
	if created.ID == "" || created.Miners != 4 || created.Coins != 2 {
		t.Fatalf("created = %+v", created)
	}

	// The game round-trips.
	var back core.Game
	doJSON(t, http.MethodGet, ts.URL+"/v2/games/"+created.ID, nil, http.StatusOK, &back)
	if back.NumMiners() != 4 {
		t.Fatalf("fetched game has %d miners", back.NumMiners())
	}

	// Submit a sweep over the registered game.
	spec := engine.LearnSweep{
		GameID:     created.ID,
		Schedulers: []string{"random", "round-robin"},
		Runs:       20,
	}
	var jh JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", envelope(t, "learn_sweep", 11, spec), http.StatusCreated, &jh)
	if jh.Handle == "" || jh.ID == "" || jh.Kind != "learn_sweep" {
		t.Fatalf("submit handle = %+v", jh)
	}

	// Poll until done.
	final := pollUntilTerminal(t, ts.URL, jh.Handle)
	if final.State != engine.StateDone {
		t.Fatalf("final state = %+v", final)
	}
	if final.Progress.Done != final.Progress.Total || final.Progress.Total != 40 {
		t.Fatalf("progress = %+v", final.Progress)
	}

	// Fetch the result.
	var res struct {
		Result engine.LearnSweepResult `json:"result"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+jh.Handle+"/result", nil, http.StatusOK, &res)
	if res.Result.TotalRuns != 40 || len(res.Result.Schedulers) != 2 {
		t.Fatalf("result = %+v", res.Result)
	}
	for _, s := range res.Result.Schedulers {
		if s.Converged != s.Runs {
			t.Fatalf("scheduler %s: %d/%d converged", s.Scheduler, s.Converged, s.Runs)
		}
	}

	// Resubmit the identical envelope: the cache points the new handle back
	// at the original job — no new job is minted — and flags the hit.
	var jh2 JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", envelope(t, "learn_sweep", 11, spec), http.StatusCreated, &jh2)
	if jh2.State != engine.StateDone || !jh2.Cached {
		t.Fatalf("resubmit handle = %+v", jh2)
	}
	if jh2.ID != jh.ID || jh2.Handle == jh.Handle {
		t.Fatalf("cache hit minted a new job or reused a handle: %+v (original %+v)", jh2, jh)
	}
	var res2 struct {
		Result engine.LearnSweepResult `json:"result"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+jh2.Handle+"/result", nil, http.StatusOK, &res2)
	a, _ := json.Marshal(res.Result)
	b, _ := json.Marshal(res2.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs:\n%s\n%s", a, b)
	}

	// A different seed misses the cache.
	var jh3 JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", envelope(t, "learn_sweep", 12, spec), http.StatusCreated, &jh3)
	if jh3.Cached {
		t.Fatal("different seed hit the cache")
	}
	pollUntilTerminal(t, ts.URL, jh3.Handle)
}

// TestCancellationMidJob submits a job far too large to finish and cancels
// it by releasing its only handle.
func TestCancellationMidJob(t *testing.T) {
	s, ts := testServer(t)
	spec := engine.LearnSweep{
		Gen:        core.GenSpec{Miners: 24, Coins: 4},
		Schedulers: []string{"random"},
		Runs:       1000000,
	}
	var jh JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", envelope(t, "learn_sweep", 1, spec), http.StatusCreated, &jh)

	// The result endpoint refuses while the job runs.
	resp, err := http.Get(ts.URL + "/v2/jobs/" + jh.Handle + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: status %d, want 409", resp.StatusCode)
	}

	var released JobHandle
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+jh.Handle, nil, http.StatusOK, &released)
	if released.Clients != 0 {
		t.Fatalf("release left %d clients", released.Clients)
	}
	final := s.WaitJobTerminal(t, jh.ID)
	if final.State != engine.StateCanceled {
		t.Fatalf("final state = %s, want canceled", final.State)
	}
	if final.Progress.Done >= final.Progress.Total {
		t.Fatalf("job finished despite cancellation: %+v", final.Progress)
	}

	// A canceled job has no result: 410 (terminal), distinct from the 409
	// that means "retry later".
	job, err := s.manager.Get(jh.ID)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJobResult(rec, job)
	if rec.Code != http.StatusGone {
		t.Fatalf("result of canceled job: status %d, want 410", rec.Code)
	}
	// The released handle itself is gone.
	doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+jh.Handle, nil, http.StatusNotFound, nil)
}

// TestAllJobTypes submits one small job of each built-in kind end to end.
func TestAllJobTypes(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		kind string
		seed uint64
		spec any
	}{
		{"learn_sweep", 2, engine.LearnSweep{Gen: core.GenSpec{Miners: 5, Coins: 2}, Schedulers: []string{"max-gain"}, Runs: 4}},
		{"design_sweep", 3, engine.DesignSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Pairs: 2}},
		{"equilibrium_sweep", 4, engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 6}},
		{"replay_sweep", 5, engine.ReplaySweep{Params: replayParams, Runs: 1}},
	}
	for _, c := range cases {
		var jh JobHandle
		doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", envelope(t, c.kind, c.seed, c.spec), http.StatusCreated, &jh)
		final := pollUntilTerminal(t, ts.URL, jh.Handle)
		if final.State != engine.StateDone {
			t.Fatalf("%s: final = %+v", c.kind, final)
		}
		var res map[string]any
		doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+jh.Handle+"/result", nil, http.StatusOK, &res)
		if res["result"] == nil {
			t.Fatalf("%s: empty result", c.kind)
		}
	}
}

// TestCacheKeyIgnoresSpecEncoding: two replay_sweep envelopes whose spec
// documents differ only in key order and an explicitly spelled default
// decode to the same spec and must share one cache entry.
func TestCacheKeyIgnoresSpecEncoding(t *testing.T) {
	_, ts := testServer(t)
	doc1 := `{"kind":"replay_sweep","seed":5,"spec":{"runs":1,"params":{"Miners":30,"Epochs":144,"SpikeHour":48}}}`
	doc2 := `{"seed":5,"spec":{"params":{"SpikeHour":48,"Seed":0,"Epochs":144,"Miners":30},"runs":1},"kind":"replay_sweep"}`
	var jh1 JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", json.RawMessage(doc1), http.StatusCreated, &jh1)
	if final := pollUntilTerminal(t, ts.URL, jh1.Handle); final.State != engine.StateDone {
		t.Fatalf("final = %+v", final)
	}
	var jh2 JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", json.RawMessage(doc2), http.StatusCreated, &jh2)
	if !jh2.Cached || jh2.ID != jh1.ID {
		t.Fatalf("re-encoded resubmit missed the cache: %+v (original %s)", jh2, jh1.ID)
	}
}

// TestReplayInnerSeedRejected: a non-zero seed inside the replay params used
// to be silently zeroed; it is now a 400 pointing the caller at the
// job-level seed field (the one that actually roots the randomness).
func TestReplayInnerSeedRejected(t *testing.T) {
	_, ts := testServer(t)
	p := replayParams
	p.Seed = 99
	env := envelope(t, "replay_sweep", 5, engine.ReplaySweep{Params: p, Runs: 1})
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", jsonBody(t, env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inner-seed submission: status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "seed") || !strings.Contains(e.Error, "job-level") {
		t.Fatalf("rejection should point at the job-level seed field, got %q", e.Error)
	}
}

// TestInFlightDedup: an identical submission while the first job is still
// running attaches to the running job instead of recomputing it.
func TestInFlightDedup(t *testing.T) {
	s, ts := testServer(t)
	env := envelope(t, "learn_sweep", 1, engine.LearnSweep{
		Gen:        core.GenSpec{Miners: 16, Coins: 4},
		Schedulers: []string{"random"},
		Runs:       100000, // far too large to finish before the resubmit
	})
	var jh1, jh2 JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", env, http.StatusCreated, &jh1)
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", env, http.StatusCreated, &jh2)
	if jh2.ID != jh1.ID || !jh2.Cached || jh2.Clients != 2 {
		t.Fatalf("in-flight duplicate not deduped: first %+v, second %+v", jh1, jh2)
	}
	// Releasing both handles cancels the job and retracts its cache entry,
	// so a resubmit mints a new job.
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+jh1.Handle, nil, http.StatusOK, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+jh2.Handle, nil, http.StatusOK, nil)
	if final := s.WaitJobTerminal(t, jh1.ID); final.State != engine.StateCanceled {
		t.Fatalf("final = %+v", final)
	}
	var jh3 JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", env, http.StatusCreated, &jh3)
	if jh3.ID == jh1.ID || jh3.Cached {
		t.Fatalf("canceled job still served from cache: %+v", jh3)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+jh3.Handle, nil, http.StatusOK, nil)
}

// TestPanicSafeJob: a request whose params would panic deep inside the
// simulator must fail cleanly (400 from validation) and never kill the
// server.
func TestPanicSafeJob(t *testing.T) {
	_, ts := testServer(t)
	bad := replayParams
	bad.Miners = -1
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		envelope(t, "replay_sweep", 1, engine.ReplaySweep{Params: bad, Runs: 1}),
		http.StatusBadRequest, nil)
	// Server still alive.
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestBadRequests covers the API's error surface.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodPost, "/v2/games", "not a game", http.StatusBadRequest},
		{http.MethodGet, "/v2/games/g-nope", nil, http.StatusNotFound},
		{http.MethodPost, "/v2/jobs", envelope(t, "bogus", 1, map[string]any{}), http.StatusBadRequest},
		{http.MethodPost, "/v2/jobs", envelope(t, "learn_sweep", 1, engine.LearnSweep{GameID: "g-nope", Runs: 1}), http.StatusBadRequest},
		{http.MethodPost, "/v2/jobs", envelope(t, "learn_sweep", 1, engine.LearnSweep{Gen: core.GenSpec{Miners: 3, Coins: 2}}), http.StatusBadRequest},
		{http.MethodGet, "/v2/jobs/h-404", nil, http.StatusNotFound},
		{http.MethodGet, "/v2/jobs/h-404/result", nil, http.StatusNotFound},
		{http.MethodGet, "/v2/jobs/h-404/events", nil, http.StatusNotFound},
		{http.MethodDelete, "/v2/jobs/h-404", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s_%s", c.method, c.path), func(t *testing.T) {
			doJSON(t, c.method, ts.URL+c.path, c.body, c.want, nil)
		})
	}
}

// TestRetiredV1RoutesAre404: the flat job API and its game registry are
// gone. Every route they served falls through to the mux's plain 404 —
// even for a game and a job that exist under the current routes.
func TestRetiredV1RoutesAre404(t *testing.T) {
	_, ts := testServer(t)
	var game struct {
		ID string `json:"id"`
	}
	doJSON(t, http.MethodPost, ts.URL+"/v2/games", quickstartGame(), http.StatusCreated, &game)
	var jh JobHandle
	doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		envelope(t, "equilibrium_sweep", 7, engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 2}),
		http.StatusCreated, &jh)

	const v1 = "/v1"
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, v1 + "/games", quickstartGame()},
		{http.MethodGet, v1 + "/games/" + game.ID, nil},
		{http.MethodPost, v1 + "/jobs", map[string]any{"type": "equilibrium_sweep", "seed": 7, "games": 2}},
		{http.MethodGet, v1 + "/jobs", nil},
		{http.MethodGet, v1 + "/jobs/" + jh.ID, nil},
		{http.MethodGet, v1 + "/jobs/" + jh.ID + "/result", nil},
		{http.MethodDelete, v1 + "/jobs/" + jh.ID, nil},
	} {
		t.Run(fmt.Sprintf("%s_%s", c.method, c.path), func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, jsonBody(t, c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "404 page not found") {
				t.Fatalf("status %d, body %q: want the mux's 404", resp.StatusCode, body)
			}
		})
	}
}

// TestHandleOrderBoundedUnderChurn: the documented SDK flow (Submit → Wait
// → Result → Release) keeps the handle table near-empty, but every mint
// appends to handleOrder — the sweep must bound that slice too, or a
// long-lived server leaks one entry per request.
func TestHandleOrderBoundedUnderChurn(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < 5*engine.DefaultRetention; i++ {
		jh := s.mintHandleLocked("job-bogus", "")
		// Immediate release, as a Submit→Release client produces.
		s.dropHandleLocked(jh.Handle)
	}
	if len(s.handleOrder) > 2*engine.DefaultRetention+1 {
		t.Fatalf("handleOrder grew to %d entries under churn", len(s.handleOrder))
	}
}

// TestWriteJSONMarshalFailureIs500: writeJSON used to write the success
// header before encoding, so a marshal failure emitted a truncated 200
// body; it must buffer first and degrade to a clean 500 error document.
func TestWriteJSONMarshalFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN()) // json: unsupported value
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body is not valid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if e["error"] == "" {
		t.Fatalf("500 body carries no error: %s", rec.Body.Bytes())
	}

	// The happy path is unchanged: chosen code, indented JSON.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\n  \"n\": 1\n}\n" {
		t.Fatalf("happy path changed: %d %q", rec.Code, rec.Body.String())
	}
}

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

var replayParams = replay.ScenarioParams{Miners: 30, Epochs: 24 * 6, SpikeHour: 24 * 2}
