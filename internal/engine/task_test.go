package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/rng"
)

// raceEnabled reports a -race build (race_test.go), whose sync.Pool drops
// items at random.
var raceEnabled bool

// TestLearnSweepTaskAllocs is the allocation gate of a learn_sweep task in
// persist-stream's 8×2 shape, every scheduler swept: RunTask on a reused
// generator, then EncodeTaskResult, allocates the boxed result and its
// encoding, nothing else.
func TestLearnSweepTaskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	spec := LearnSweep{
		Gen:        core.GenSpec{Miners: 8, Coins: 2},
		Schedulers: []string{"round-robin", "random", "max-gain", "min-gain", "smallest-first", "largest-first"},
		Runs:       40,
	}
	base, gen := rng.New(7), new(rng.Rand)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		for task := range spec.Tasks() {
			base.ForkInto(gen, uint64(task))
			out, err := spec.RunTask(ctx, task, gen)
			if err == nil {
				_, err = spec.EncodeTaskResult(out)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	perTask := allocs / float64(spec.Tasks())
	if perTask > 2 {
		t.Fatalf("%.2f allocations per learn_sweep task, want at most 2", perTask)
	}
	t.Logf("%.2f allocations per learn_sweep task", perTask)
}

// TestEquilibriumSweepCountsEnumerate: an equilibrium_sweep task's count is
// the number of equilibria equilibria.Enumerate lists for the game drawn
// from the same fork.
func TestEquilibriumSweepCountsEnumerate(t *testing.T) {
	shapes := []core.GenSpec{{Miners: 6, Coins: 2}, {Miners: 8, Coins: 3}, {Miners: 10, Coins: 3}}
	multiple := 0
	for seed := uint64(0); seed < 30; seed++ {
		spec := EquilibriumSweep{Gen: shapes[seed%3], Games: 1}
		base := rng.New(seed)
		out, err := spec.RunTask(context.Background(), 0, base.Fork(0))
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.RandomGame(base.Fork(0), spec.Gen)
		if err != nil {
			t.Fatal(err)
		}
		eqs, err := equilibria.Enumerate(g)
		if err != nil {
			t.Fatal(err)
		}
		if out.(int) != len(eqs) {
			t.Fatalf("seed %d, %+v: task counted %d equilibria, Enumerate lists %d", seed, spec.Gen, out, len(eqs))
		}
		if len(eqs) > 1 {
			multiple++
		}
	}
	if multiple == 0 {
		t.Fatal("no game had several equilibria; the comparison is vacuous")
	}
}

// TestManagerEvictsOneTerminalPerSubmit: at the retention cap, behind a
// running oldest job, each further submission evicts exactly the oldest
// terminal job, and the manager's order stays in step with its jobs.
func TestManagerEvictsOneTerminalPerSubmit(t *testing.T) {
	m := NewManager(New(2)) // one worker holds the running job
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	running, err := m.SubmitJobOpts("", Func{Name: "block", N: 1, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for k := 0; k < DefaultRetention-1; k++ {
		j, err := m.Restore(fmt.Sprintf("done-%d", k), "func", 1, 0, StateDone, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	quick := Func{Name: "quick", N: 1, Task: func(context.Context, int, *rng.Rand) (any, error) { return 0, nil }}
	for k := 0; k < 20; k++ {
		j, err := m.SubmitJobOpts("", quick, uint64(k), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := waitJob(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
		m.mu.Lock()
		n, order := len(m.jobs), len(m.order)
		m.mu.Unlock()
		if n != DefaultRetention || order != n {
			t.Fatalf("submission %d: %d jobs, %d ordered, cap %d", k, n, order, DefaultRetention)
		}
		if _, err := m.Get(running.ID()); err != nil {
			t.Fatalf("submission %d evicted the running job: %v", k, err)
		}
		for e, id := range ids[:k+1] {
			if _, err := m.Get(id); err == nil {
				t.Fatalf("submission %d left %s (terminal job %d) tracked", k, id, e)
			}
		}
		if _, err := m.Get(ids[k+1]); err != nil {
			t.Fatalf("submission %d evicted %s, newer than the oldest terminal job: %v", k, ids[k+1], err)
		}
	}
}

// TestBuiltinTaskCodersRoundTrip: each built-in spec decodes its own task
// documents back into the value, and the concrete type, that RunTask
// returned, so a job whose results arrive from a remote worker or a
// restart's prefill aggregates to the bytes of a purely local run. A
// document that does not parse is an error, which the prefill path answers
// by running the task again.
func TestBuiltinTaskCodersRoundTrip(t *testing.T) {
	specs := map[string]Spec{
		"learn_sweep":       LearnSweep{Gen: core.GenSpec{Miners: 5, Coins: 2}, Schedulers: []string{"random", "max-gain"}, Runs: 4},
		"design_sweep":      DesignSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Pairs: 3},
		"replay_sweep":      ReplaySweep{Params: replay.ScenarioParams{Miners: 30, Epochs: 24 * 6, SpikeHour: 24 * 2}, Runs: 2},
		"equilibrium_sweep": EquilibriumSweep{Gen: core.GenSpec{Miners: 5, Coins: 2}, Games: 4},
	}
	ctx := context.Background()
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			coder, ok := spec.(TaskCoder)
			if !ok {
				t.Fatalf("%T is not a TaskCoder", spec)
			}
			base := rng.New(11)
			local := make([]any, spec.Tasks())
			wire := make([]any, spec.Tasks())
			for i := range local {
				out, err := spec.RunTask(ctx, i, base.Fork(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				doc, err := coder.EncodeTaskResult(out)
				if err != nil {
					t.Fatal(err)
				}
				back, err := coder.DecodeTaskResult(doc)
				if err != nil {
					t.Fatalf("task %d: decode %s: %v", i, doc, err)
				}
				if reflect.TypeOf(back) != reflect.TypeOf(out) || !reflect.DeepEqual(back, out) {
					t.Fatalf("task %d: %s decoded to %T %+v, want %T %+v", i, doc, back, back, out, out)
				}
				local[i], wire[i] = out, back
			}
			want := aggregateJSON(t, spec, local)
			if got := aggregateJSON(t, spec, wire); !bytes.Equal(got, want) {
				t.Fatalf("aggregate of decoded results = %s, want %s", got, want)
			}
			if _, err := coder.DecodeTaskResult(json.RawMessage(`{"steps":`)); err == nil {
				t.Fatal("a truncated document decoded")
			}
		})
	}
}

func aggregateJSON(t *testing.T, spec Spec, results []any) []byte {
	t.Helper()
	res, err := spec.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
