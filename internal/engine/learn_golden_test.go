package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"

	"gameofcoins/internal/core"
)

// learnGolden is one job of testdata/learn_sweep_golden.json.
type learnGolden struct {
	Name      string          `json:"name"`
	Seed      uint64          `json:"seed"`
	Spec      json.RawMessage `json:"spec"`
	Tasks     int             `json:"tasks"`
	DocsSHA   string          `json:"docs_sha256"`
	Aggregate string          `json:"aggregate"`
}

// TestLearnSweepGolden pins learn_sweep's outputs byte for byte: each job
// in testdata/learn_sweep_golden.json (recorded by writeLearnGolden, under
// -update) is rerun from its spec and seed, and the SHA-256 of its per-task
// ledger documents and its aggregate JSON must match the recording. The
// jobs cover persist-stream's 8×2 shape, 5×3, 12×4, Zipf powers, 20 coins,
// a fixed eligibility-restricted game and a named scheduler subset, so a
// change to the better-response kernel or to game generation that moves
// any step count fails here.
func TestLearnSweepGolden(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	if *update {
		writeLearnGolden(t, m)
	}
	b, err := os.ReadFile("testdata/learn_sweep_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []learnGolden
	if err := json.Unmarshal(b, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("golden file is empty")
	}
	for _, g := range jobs {
		t.Run(g.Name, func(t *testing.T) {
			var spec LearnSweep
			if err := json.Unmarshal(g.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			if spec.Tasks() != g.Tasks {
				t.Fatalf("spec has %d tasks, recorded %d", spec.Tasks(), g.Tasks)
			}
			docsSHA, agg := runLearnGolden(t, m, spec, g.Seed)
			if docsSHA != g.DocsSHA {
				t.Errorf("task documents digest %s, recorded %s", docsSHA, g.DocsSHA)
			}
			if agg != g.Aggregate {
				t.Errorf("aggregate\n got %s\nwant %s", agg, g.Aggregate)
			}
		})
	}
}

// runLearnGolden runs one learn_sweep job and returns the SHA-256 of its
// per-task ledger documents, each followed by a newline, and its aggregate
// JSON.
func runLearnGolden(t *testing.T, m *Manager, spec LearnSweep, seed uint64) (docsSHA, aggregate string) {
	t.Helper()
	job, err := m.SubmitJobOpts("", spec, seed, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	docs, err := job.ResultRange(0, spec.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range docs.Len() {
		h.Write(docs.Doc(i))
		h.Write([]byte{'\n'})
	}
	res, _ := job.Result()
	agg, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), string(agg)
}

// writeLearnGolden records testdata/learn_sweep_golden.json (-update): the
// fixed-seed jobs TestLearnSweepGolden reruns.
func writeLearnGolden(t *testing.T, m *Manager) {
	t.Helper()
	restricted, err := core.NewGame(
		[]core.Miner{
			{Name: "p1", Power: 13}, {Name: "p2", Power: 11}, {Name: "p3", Power: 7},
			{Name: "p4", Power: 5}, {Name: "p5", Power: 3}, {Name: "p6", Power: 2}, {Name: "p7", Power: 1.5},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{17, 19, 23},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return (p+c)%3 != 0 || p < 2 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	var out []learnGolden
	for _, c := range []struct {
		name string
		seed uint64
		spec LearnSweep
	}{
		{"8x2 persist-stream shape", 7, LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}},
		{"5x3", 11, LearnSweep{Gen: core.GenSpec{Miners: 5, Coins: 3}, Runs: 60}},
		{"12x4", 13, LearnSweep{Gen: core.GenSpec{Miners: 12, Coins: 4}, Runs: 40}},
		{"16x3 zipf powers", 17, LearnSweep{Gen: core.GenSpec{Miners: 16, Coins: 3, PowerZipf: 1.1}, Runs: 30}},
		{"10x20 many coins", 19, LearnSweep{Gen: core.GenSpec{Miners: 10, Coins: 20}, Runs: 15}},
		{"fixed restricted game", 23, LearnSweep{Game: restricted, Runs: 50}},
		{"named schedulers", 29, LearnSweep{Gen: core.GenSpec{Miners: 9, Coins: 3}, Schedulers: []string{"min-gain", "random", "round-robin"}, Runs: 50}},
	} {
		spec, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		docsSHA, agg := runLearnGolden(t, m, c.spec, c.seed)
		out = append(out, learnGolden{Name: c.name, Seed: c.seed, Spec: spec, Tasks: c.spec.Tasks(), DocsSHA: docsSHA, Aggregate: agg})
	}
	writeGolden(t, "testdata/learn_sweep_golden.json", out)
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
