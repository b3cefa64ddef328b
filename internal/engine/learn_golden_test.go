package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestLearnSweepGolden pins learn_sweep's outputs byte for byte: each job
// in testdata/learn_sweep_golden.json (recorded by gen_learn_golden.go) is
// rerun from its spec and seed, and the SHA-256 of its per-task ledger
// documents and its aggregate JSON must match the recording. The jobs cover
// persist-stream's 8×2 shape, 5×3, 12×4, Zipf powers, 20 coins, a fixed
// eligibility-restricted game and a named scheduler subset, so a change to
// the better-response kernel or to game generation that moves any step
// count fails here.
func TestLearnSweepGolden(t *testing.T) {
	b, err := os.ReadFile("testdata/learn_sweep_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []struct {
		Name      string          `json:"name"`
		Seed      uint64          `json:"seed"`
		Spec      json.RawMessage `json:"spec"`
		Tasks     int             `json:"tasks"`
		DocsSHA   string          `json:"docs_sha256"`
		Aggregate string          `json:"aggregate"`
	}
	if err := json.Unmarshal(b, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("golden file is empty")
	}
	m := NewManager(New(2))
	defer m.Close()
	for _, g := range jobs {
		t.Run(g.Name, func(t *testing.T) {
			var spec LearnSweep
			if err := json.Unmarshal(g.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			if spec.Tasks() != g.Tasks {
				t.Fatalf("spec has %d tasks, recorded %d", spec.Tasks(), g.Tasks)
			}
			job, err := m.SubmitJobOpts("", spec, g.Seed, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := waitJob(context.Background(), job); err != nil {
				t.Fatal(err)
			}
			docs, err := job.ResultRange(0, g.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i := range docs.Len() {
				h.Write(docs.Doc(i))
				h.Write([]byte{'\n'})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.DocsSHA {
				t.Errorf("task documents digest %s, recorded %s", got, g.DocsSHA)
			}
			res, _ := job.Result()
			agg, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(agg) != g.Aggregate {
				t.Errorf("aggregate\n got %s\nwant %s", agg, g.Aggregate)
			}
		})
	}
}

// TestLearnTaskEncodeMatchesMarshal: LearnSweep's hand-written task encoder
// writes exactly json.Marshal's bytes, at the integer extremes and for both
// booleans, and still marshals a value of any other type.
func TestLearnTaskEncodeMatchesMarshal(t *testing.T) {
	var s LearnSweep
	for _, steps := range []int{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 9, 10, math.MaxInt64 - 1, math.MaxInt64} {
		for _, converged := range []bool{false, true} {
			tr := learnTaskResult{Steps: steps, Converged: converged}
			want, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.EncodeTaskResult(tr)
			if err != nil || string(got) != string(want) {
				t.Fatalf("EncodeTaskResult(%+v) = %s, %v; want %s", tr, got, err, want)
			}
		}
	}
	if got, err := s.EncodeTaskResult(42); err != nil || string(got) != "42" {
		t.Fatalf("EncodeTaskResult(42) = %s, %v; want 42", got, err)
	}
}
