package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
)

// gatedDone is a file store whose done-record writes wait until release
// is closed, and so does every persist op queued behind one.
type gatedDone struct {
	*store.File
	release chan struct{}
}

func (g gatedDone) PutJob(rec store.JobRecord) error {
	if rec.State == store.JobDone {
		<-g.release
	}
	return g.File.PutJob(rec)
}

// waitResultStored polls until the job has dropped its result: the drop
// runs on the persist queue once the done record is written.
func waitResultStored(t *testing.T, s *server.Server, jobID string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, err := s.JobResult(jobID)
		if errors.Is(err, engine.ErrResultStored) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never dropped its result", jobID)
}

// TestDoneJobDropsItsResult: a done learn_sweep job keeps its result in
// memory until its done record is written, then only the store's log holds
// it. GET /result serves the bytes a server without a store serves before
// the drop, after it, to a cache hit, and after a restart; once the store
// has evicted the job's record, it answers 410.
func TestDoneJobDropsItsResult(t *testing.T) {
	ctx := context.Background()
	learn := engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Runs: 10}
	_, plainURL := v2ServerWith(t)
	ref, err := client.New(plainURL).SubmitLearnSweep(ctx, learn, 5)
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, plainURL, ref.ID())
	want := string(rawGet(t, plainURL+"/v2/jobs/"+ref.ID()+"/result"))

	dir := t.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := gatedDone{File: st, release: make(chan struct{})}
	s, err := server.NewWithOptions(4, server.Options{Store: gate})
	if err != nil {
		t.Fatal(err)
	}
	p1 := servePersistent(t, s, st)
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	t.Cleanup(release) // before p1's shutdown, which drains the queue
	c := client.New(p1.URL)
	h, err := c.SubmitLearnSweep(ctx, learn, 5)
	if err != nil {
		t.Fatal(err)
	}
	id := h.Submitted.Status.ID
	if id != ref.Submitted.Status.ID {
		t.Fatalf("the job is %s here and %s without a store", id, ref.Submitted.Status.ID)
	}
	check := func(when, base, handle string) {
		t.Helper()
		if got := string(rawGet(t, base+"/v2/jobs/"+handle+"/result")); got != want {
			t.Fatalf("%s: result\n%s\nwithout a store\n%s", when, got, want)
		}
	}
	waitHandleDone(t, p1.URL, h.ID())
	if res, err := s.JobResult(id); err != nil || res == nil {
		t.Fatalf("before its done record is written the job holds %v, %v", res, err)
	}
	check("before the drop", p1.URL, h.ID())
	release()
	waitResultStored(t, s, id)
	check("after the drop", p1.URL, h.ID())
	hit, err := c.SubmitLearnSweep(ctx, learn, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Submitted.Cached || hit.Submitted.Status.ID != id {
		t.Fatalf("resubmission missed the cache: %+v", hit.Submitted)
	}
	check("cache hit", p1.URL, hit.ID())
	p1.shutdown()

	p2 := openPersistent(t, dir, false)
	if _, err := p2.s.JobResult(id); !errors.Is(err, engine.ErrResultStored) {
		t.Fatalf("the restored job holds its result: %v", err)
	}
	check("after a restart", p2.URL, h.ID())
	// Records of newer finished jobs push the job's record out of the
	// store; the engine still holds the job.
	for i := range engine.DefaultRetention + engine.DefaultRetention/4 + 1 {
		if err := p2.st.PutJob(store.JobRecord{ID: fmt.Sprintf("job-%d", 1000+i), State: store.JobFailed, Error: "filler"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p2.s.JobStatus(id); err != nil {
		t.Fatal(err)
	}
	if code := getStatusCode(t, p2.URL+"/v2/jobs/"+h.ID()+"/result"); code != http.StatusGone {
		t.Fatalf("result of a job whose record the store evicted: status %d, want 410", code)
	}
}

// doneFail is a file store whose done-record writes fail.
type doneFail struct{ *store.File }

func (d doneFail) PutJob(rec store.JobRecord) error {
	if rec.State == store.JobDone {
		return errors.New("injected done write failure")
	}
	return d.File.PutJob(rec)
}

// TestFailedDoneWriteKeepsTheResult: a done job whose done record the store
// failed to write keeps its result and its run in memory, serves the bytes
// a server without a store serves, and /healthz counts the failure.
func TestFailedDoneWriteKeepsTheResult(t *testing.T) {
	ctx := context.Background()
	learn := engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Schedulers: []string{"random"}, Runs: 6}
	_, plainURL := v2ServerWith(t)
	ref, err := client.New(plainURL).SubmitLearnSweep(ctx, learn, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, plainURL, ref.ID())
	want := string(rawGet(t, plainURL+"/v2/jobs/"+ref.ID()+"/result"))

	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewWithOptions(2, server.Options{Store: doneFail{st}})
	if err != nil {
		t.Fatal(err)
	}
	p := servePersistent(t, s, st)
	h, err := client.New(p.URL).SubmitLearnSweep(ctx, learn, 3)
	if err != nil {
		t.Fatal(err)
	}
	id := h.Submitted.Status.ID
	waitHandleDone(t, p.URL, h.ID())
	var hz struct {
		Failures uint64 `json:"persist_failures"`
	}
	for deadline := time.Now().Add(30 * time.Second); hz.Failures == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed done write was never counted")
		}
		if err := json.Unmarshal(rawGet(t, p.URL+"/healthz"), &hz); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := s.JobResult(id); err != nil || res == nil {
		t.Fatalf("after a failed done write the job holds %v, %v; want its result", res, err)
	}
	if docs, err := s.JobRange(id, 0, learn.Tasks()); err != nil || docs.Len() != learn.Tasks() {
		t.Fatalf("after a failed done write the ledger holds %d documents, %v; want its run", docs.Len(), err)
	}
	if got := string(rawGet(t, p.URL+"/v2/jobs/"+h.ID()+"/result")); got != want {
		t.Fatalf("result\n%s\nwithout a store\n%s", got, want)
	}
}
