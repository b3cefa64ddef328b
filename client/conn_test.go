package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
)

// TestOpsReuseConnections: a hundred submit → Wait → Result → Release ops,
// and a hundred submit → StreamResult → Release ops, each run over a
// handful of TCP connections. Every body the SDK closes, the DELETE reply
// and the event stream after "end" included, is read to its end first,
// even when the caller cancels Wait's context as soon as it returns.
func TestOpsReuseConnections(t *testing.T) {
	s := server.New(2)
	ts := httptest.NewUnstartedServer(s)
	var accepted atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			accepted.Add(1)
		}
	}
	ts.Start()
	defer s.Close()
	defer ts.Close()
	ctx := context.Background()

	ops := map[string]func(c *Client, k int) error{
		"wait_result": func(c *Client, k int) error {
			h, err := c.SubmitEquilibriumSweep(ctx, engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 2}, uint64(k))
			if err != nil {
				return err
			}
			wctx, cancel := context.WithCancel(ctx)
			_, err = h.Wait(wctx)
			cancel()
			if err != nil {
				return err
			}
			var res engine.EquilibriumSweepResult
			if err := h.Result(ctx, &res); err != nil {
				return err
			}
			return h.Release(ctx)
		},
		"stream": func(c *Client, k int) error {
			h, err := c.SubmitLearnSweep(ctx, engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Schedulers: []string{"random"}, Runs: 3}, uint64(k))
			if err != nil {
				return err
			}
			if _, err := h.StreamResult(ctx, func(int, json.RawMessage) error { return nil }); err != nil {
				return err
			}
			return h.Release(ctx)
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			c := New(ts.URL, WithHTTPClient(&http.Client{Transport: new(http.Transport)}))
			before := accepted.Load()
			for k := range 100 {
				if err := op(c, k); err != nil {
					t.Fatalf("op %d: %v", k, err)
				}
			}
			n := accepted.Load() - before
			if n > 4 {
				t.Fatalf("100 ops opened %d connections, want at most 4", n)
			}
			t.Logf("100 ops opened %d connections", n)
		})
	}
}

// TestWaitDoesNotWaitForStreamEnd: a server that writes the terminal "end"
// event and then holds the stream open does not hold up Wait, which returns
// the terminal status at once; the drain that follows is cut off after
// endDrainWait.
func TestWaitDoesNotWaitForStreamEnd(t *testing.T) {
	end, err := json.Marshal(engine.Status{ID: "job-1", Kind: "learn_sweep", State: engine.StateDone, Progress: engine.Progress{Done: 1, Total: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "id: 1.1\nevent: end\ndata: %s\n\n", end)
		w.(http.Flusher).Flush()
		select {
		case <-hold:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(hold)

	h := &Handle{c: New(ts.URL), id: "h-1"}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	st, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != engine.StateDone {
		t.Fatalf("Wait returned %+v, want the terminal status", st)
	}
	if took := time.Since(start); took >= endDrainWait/2 {
		t.Fatalf("Wait took %v against a stream held open after end", took)
	}
}
