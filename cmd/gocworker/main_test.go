//go:build unix

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/dist"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
)

// workerArgsEnv carries a child process's gocworker arguments. TestMain
// runs main with them instead of the tests, the way os/exec's own tests
// re-execute their binary as a helper command.
const workerArgsEnv = "GOCWORKER_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(workerArgsEnv); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// slowEquilibria is equilibrium_sweep with each task held for 5 ms of wall
// time, so a 32-task lease lasts long enough to be seen in /healthz with or
// without the race detector, while the sweep costs the CPU of the real
// kind. Coordinator and workers are this one test binary, so both register
// it and their catalog fingerprints match.
type slowEquilibria struct{ engine.EquilibriumSweep }

func (slowEquilibria) Kind() string { return "slow_equilibrium_sweep" }

func (s slowEquilibria) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	time.Sleep(5 * time.Millisecond)
	return s.EquilibriumSweep.RunTask(ctx, i, r)
}

func init() {
	engine.RegisterSpec("slow_equilibrium_sweep", 1, engine.DecodeJSON[slowEquilibria](), nil)
}

// TestFleetSurvivesWorkerKill: a coordinator with one local worker and two
// gocworker processes, "victim" and "survivor", share a sweep, and the
// victim is SIGKILLed while it holds a lease. The job must still end done,
// with result bytes equal to a fleetless single-machine run's, some tasks
// completed remotely and the victim's lease expired; the survivor must exit
// 0 on SIGINT.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := map[string]any{"gen": map[string]any{"Miners": 11, "Coins": 3}, "games": 400}
	submit := func(base string) *client.Handle {
		t.Helper()
		h, err := client.New(base).Submit(ctx, "slow_equilibrium_sweep", 7, spec)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	result := func(base string, h *client.Handle) []byte {
		t.Helper()
		if st, err := h.Wait(ctx); err != nil || st.State != engine.StateDone {
			t.Fatalf("job %s ended %s (%v)", h.ID(), st.State, err)
		}
		resp, err := http.Get(base + "/v2/jobs/" + h.ID() + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result = %d %s (%v)", resp.StatusCode, body, err)
		}
		return body
	}

	ref := serve(t, server.New(8))
	want := result(ref, submit(ref))

	coord, err := server.NewWithOptions(1, server.Options{
		Dist: dist.Config{LeaseTTL: 2 * time.Second, MaxLeaseTasks: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := serve(t, coord)
	victim := startWorker(t, base, "victim")
	survivor := startWorker(t, base, "survivor")
	h := submit(base)

	// Freeze the victim once it holds a lease and give a report it may have
	// had in flight time to land: if it still holds one, the kill cannot
	// slip in between two of its leases.
	deadline := time.Now().Add(time.Minute)
	for {
		if leasesHeld(t, base, "victim") > 0 {
			sendSignal(t, victim, syscall.SIGSTOP)
			time.Sleep(50 * time.Millisecond)
			if leasesHeld(t, base, "victim") > 0 {
				break
			}
			sendSignal(t, victim, syscall.SIGCONT)
		}
		if time.Now().After(deadline) {
			t.Fatal("the victim never held a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sendSignal(t, victim, syscall.SIGKILL)
	if err := victim.Wait(); err == nil {
		t.Fatal("SIGKILLed victim exited cleanly")
	}

	if got := result(base, h); !bytes.Equal(got, want) {
		t.Fatalf("result with a killed worker differs from the fleetless run:\n%s\nwant\n%s", got, want)
	}
	st := fleet(t, base)
	if st.Granted < 1 || st.Completed < 1 || st.Expired < 1 {
		t.Fatalf("fleet granted %d leases, completed %d tasks remotely, expired %d leases; want each >= 1",
			st.Granted, st.Completed, st.Expired)
	}
	sendSignal(t, survivor, os.Interrupt)
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor exited with %v after SIGINT", err)
	}
}

// serve runs s on a loopback listener until the test ends.
func serve(t *testing.T, s *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// startWorker re-executes the test binary as `gocworker -coordinator base
// -name name -workers 2`. GORACE=halt_on_error=1 makes a race-instrumented
// child exit non-zero at the first race it detects. The child is killed at
// the end of the test if it is still running, and its log is printed if the
// test failed.
func startWorker(t *testing.T, base, name string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		workerArgsEnv+"=-coordinator "+base+" -name "+name+" -workers 2",
		"GORACE=halt_on_error=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill() // still running: the test failed, and says why
			_ = cmd.Wait()
		}
		if t.Failed() {
			t.Logf("%s log:\n%s", name, stderr.Bytes())
		}
	})
	return cmd
}

func sendSignal(t *testing.T, cmd *exec.Cmd, sig os.Signal) {
	t.Helper()
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signal %v: %v", sig, err)
	}
}

// fleet decodes the "dist" block of the coordinator's /healthz.
func fleet(t *testing.T, base string) dist.Stats {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Dist dist.Stats `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health.Dist
}

// leasesHeld is how many leases /healthz shows the named worker holding.
func leasesHeld(t *testing.T, base, name string) int {
	t.Helper()
	for _, w := range fleet(t, base).Workers {
		if w.Name == name {
			return w.ActiveLeases
		}
	}
	return 0
}
