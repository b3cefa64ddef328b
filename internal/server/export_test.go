package server

import (
	"testing"
	"time"

	"gameofcoins/internal/engine"
)

// JobStatus reads a job's status by ID, bypassing the handle table. Tests
// use it to watch a job after its last handle is released, when no route
// reaches the job any more.
func (s *Server) JobStatus(id string) (engine.Status, error) {
	job, err := s.manager.Get(id)
	if err != nil {
		return engine.Status{}, err
	}
	return job.Status(), nil
}

// JobRange reads a job's result ledger by ID, like JobStatus.
func (s *Server) JobRange(id string, lo, hi int) (engine.Docs, error) {
	job, err := s.manager.Get(id)
	if err != nil {
		return engine.Docs{}, err
	}
	return job.ResultRange(lo, hi)
}

// JobResult reads a job's in-memory result by ID, like JobStatus.
func (s *Server) JobResult(id string) (any, error) {
	job, err := s.manager.Get(id)
	if err != nil {
		return nil, err
	}
	return job.Result()
}

// WaitJobTerminal polls JobStatus until the job reaches a terminal state.
func (s *Server) WaitJobTerminal(t testing.TB, id string) engine.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.JobStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return engine.Status{}
}
