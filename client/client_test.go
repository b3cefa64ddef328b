package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/server"
)

// TestTypedSubmitMatchesEngineRun: each typed submit helper sends its spec
// under the spec's own kind, and the result the server returns is, once
// compacted, the bytes of the same job run on an in-process engine.
func TestTypedSubmitMatchesEngineRun(t *testing.T) {
	s := server.New(2)
	ts := httptest.NewServer(s)
	defer s.Close()
	defer ts.Close()
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	learn := engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Schedulers: []string{"random"}, Runs: 3}
	design := engine.DesignSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Pairs: 2}
	rep := engine.ReplaySweep{Params: replay.ScenarioParams{Miners: 30, Epochs: 24 * 6, SpikeHour: 24 * 2}, Runs: 2}
	eq := engine.EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 3}
	tests := []struct {
		spec   engine.Spec
		submit func(seed uint64) (*Handle, error)
	}{
		{learn, func(seed uint64) (*Handle, error) { return c.SubmitLearnSweep(ctx, learn, seed) }},
		{design, func(seed uint64) (*Handle, error) { return c.SubmitDesignSweep(ctx, design, seed) }},
		{rep, func(seed uint64) (*Handle, error) { return c.SubmitReplaySweep(ctx, rep, seed) }},
		{eq, func(seed uint64) (*Handle, error) { return c.SubmitEquilibriumSweep(ctx, eq, seed) }},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Kind(), func(t *testing.T) {
			const seed = 5
			h, err := tt.submit(seed)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release(ctx)
			st, err := h.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != engine.StateDone || st.Kind != tt.spec.Kind() {
				t.Fatalf("job ended %s as kind %q, want done as %q", st.State, st.Kind, tt.spec.Kind())
			}
			var got json.RawMessage
			if err := h.Result(ctx, &got); err != nil {
				t.Fatal(err)
			}
			res, err := engine.New(1).Run(ctx, tt.spec, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compact.Bytes(), want) {
				t.Fatalf("served result %s, want the engine's %s", compact.Bytes(), want)
			}
		})
	}
}

func TestErrorStrings(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want string
	}{
		{"api", &APIError{StatusCode: 404, Message: "no such job"}, "server: no such job (HTTP 404)"},
		{"batch", &BatchError{StatusCode: 429, Message: "rate limited"}, "server: rate limited (HTTP 429)"},
		{"batch_at_path", &BatchError{StatusCode: 422, Message: "want an integer", Path: "/runs"}, "server: want an integer (HTTP 422, at /runs)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.err.Error(); got != tt.want {
				t.Fatalf("Error() = %q, want %q", got, tt.want)
			}
		})
	}
}
