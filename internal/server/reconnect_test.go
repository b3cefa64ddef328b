// Watch-reconnect test: the SDK's SSE stream must survive a server restart
// mid-job — reconnect with backoff and Last-Event-ID instead of silently
// closing — and ride the rehydrated (resubmitted) job to its terminal
// status. External test package like v2_test.go.
package server_test

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
)

// restartableServer serves a server.Server on a fixed address so a client
// can reconnect to the "same server" across an in-process restart —
// httptest picks a fresh port per instance, which would defeat the point.
type restartableServer struct {
	s  *server.Server
	hs *http.Server
	ln net.Listener
}

func startOn(t *testing.T, addr string, st store.Store) *restartableServer {
	t.Helper()
	var ln net.Listener
	var err error
	// The previous instance just closed this address; rebinding can race the
	// kernel briefly, so retry for a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s, err := server.NewWithOptions(2, server.Options{Store: st})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	return &restartableServer{s: s, hs: hs, ln: ln}
}

// stop kills the HTTP server abruptly — open SSE connections drop without a
// terminal event, exactly the mid-job cut the reconnect logic exists for —
// then closes the engine server (whose store keeps the job "submitted").
func (r *restartableServer) stop() {
	r.hs.Close()
	r.s.Close()
}

// TestWatchReconnectsAcrossRestart: a client watches a job, the server dies
// mid-job and comes back on the same address and store, the interrupted job
// is resubmitted server-side, and the SAME Watch channel delivers the
// terminal status — no reconnect logic in the caller.
func TestWatchReconnectsAcrossRestart(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Pick a free port, then serve on it so the restart can rebind it.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	srv1 := startOn(t, addr, st)
	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Half the tasks complete immediately (progress flows pre-restart), the
	// rest block on the gate until after the restart.
	spec := gatedSpec{Name: "reconnect-" + strconv.Itoa(time.Now().Nanosecond()), N: 4, Free: 2}
	defer openGate(spec.Name)
	h, err := c.Submit(ctx, "test_gated", 6, spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := h.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Drain the stream in the background, recording what arrives; the
	// channel must stay open across the restart and close only after the
	// terminal status.
	type watchEnd struct {
		last     engine.Status
		statuses int
	}
	done := make(chan watchEnd, 1)
	go func() {
		var end watchEnd
		for st := range ch {
			end.last = st
			end.statuses++
		}
		done <- end
	}()

	// Wait until the free tasks' progress has been observed server-side, so
	// the cut happens demonstrably mid-job.
	waitProgress := func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			jh, err := h.Status(ctx)
			if err == nil && jh.Progress.Done >= spec.Free {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Error("free tasks never progressed")
	}
	waitProgress()

	srv1.stop()
	select {
	case end := <-done:
		t.Fatalf("watch channel closed on server death: %+v", end)
	case <-time.After(300 * time.Millisecond):
		// Good: the watch is retrying while the server is gone.
	}

	// Restart on the same address and store: the handle rehydrates, the
	// interrupted job resubmits under its original ID, and — once the gate
	// opens — completes deterministically.
	srv2 := startOn(t, addr, st)
	defer srv2.stop()
	openGate(spec.Name)

	end := <-done
	if !end.last.State.Terminal() || end.last.State != engine.StateDone {
		t.Fatalf("terminal status after restart = %+v", end.last)
	}
	if end.last.ID != h.Submitted.Status.ID {
		t.Fatalf("watch ended on job %s, submitted %s", end.last.ID, h.Submitted.Status.ID)
	}
	if end.statuses == 0 {
		t.Fatal("no statuses delivered at all")
	}

	// The handle still resolves for results too.
	var n int
	if err := h.Result(ctx, &n); err != nil {
		t.Fatal(err)
	}
	if n != spec.N {
		t.Fatalf("result = %d, want %d", n, spec.N)
	}
}
