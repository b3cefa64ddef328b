package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
)

// TestStoreKeepsWhatTheEngineTracks: the engine and the store both keep the
// newest engine.DefaultRetention jobs by sequence, so every done job the
// engine still tracks has its result in the store once it has dropped it
// from memory. Jobs finish one after another, past the count that forces
// the store to compact away its oldest records.
func TestStoreKeepsWhatTheEngineTracks(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(2, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	defer s.Close()
	const n = engine.DefaultRetention + engine.DefaultRetention/4 + 20
	for i := 1; i <= n; i++ {
		env := engine.JobEnvelope{Kind: "equilibrium_sweep", Seed: uint64(i), Spec: []byte(`{"gen":{"Miners":2,"Coins":2},"games":1}`)}
		jh, err := s.submitEnvelope(env, "")
		if err != nil {
			t.Fatal(err)
		}
		job, err := s.manager.Get(jh.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
	}
	deadline := time.Now().Add(60 * time.Second)
	tracked := 0
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("job-%d", i)
		job, err := s.manager.Get(id)
		if err != nil {
			if i > n-engine.DefaultRetention {
				t.Fatalf("the engine evicted %s, one of the newest %d", id, engine.DefaultRetention)
			}
			continue
		}
		tracked++
		for _, err := job.Result(); !errors.Is(err, engine.ErrResultStored); _, err = job.Result() {
			if err != nil || time.Now().After(deadline) {
				t.Fatalf("%s never dropped its result: %v", id, err)
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := st.ReadResult(nil, id); err != nil {
			t.Fatalf("the engine tracks %s, whose result the store does not hold: %v", id, err)
		}
		rec := httptest.NewRecorder()
		s.writeJobResult(rec, job)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s's result: status %d\n%s", id, rec.Code, rec.Body)
		}
	}
	if tracked != engine.DefaultRetention {
		t.Fatalf("the engine tracks %d jobs, want %d", tracked, engine.DefaultRetention)
	}
	if _, err := st.ReadResult(nil, "job-1"); !errors.Is(err, store.ErrNoDocs) {
		t.Fatalf("the store still holds the oldest job's result: %v", err)
	}
}
