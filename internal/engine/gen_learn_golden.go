//go:build ignore

// gen_learn_golden regenerates testdata/learn_sweep_golden.json: fixed-seed
// learn_sweep jobs with a digest of their per-task documents and their
// aggregate bytes, which TestLearnSweepGolden recomputes. Run it only when
// learn_sweep results change ON PURPOSE (a kernel change must leave them
// byte-identical):
//
//	go run gen_learn_golden.go
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

type goldenJob struct {
	Name      string          `json:"name"`
	Seed      uint64          `json:"seed"`
	Spec      json.RawMessage `json:"spec"`
	Tasks     int             `json:"tasks"`
	DocsSHA   string          `json:"docs_sha256"`
	Aggregate string          `json:"aggregate"`
}

func main() {
	restricted, err := core.NewGame(
		[]core.Miner{
			{Name: "p1", Power: 13}, {Name: "p2", Power: 11}, {Name: "p3", Power: 7},
			{Name: "p4", Power: 5}, {Name: "p5", Power: 3}, {Name: "p6", Power: 2}, {Name: "p7", Power: 1.5},
		},
		[]core.Coin{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}},
		[]float64{17, 19, 23},
		core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return (p+c)%3 != 0 || p < 2 }),
	)
	check(err)
	cases := []struct {
		name string
		seed uint64
		spec engine.LearnSweep
	}{
		{"8x2 persist-stream shape", 7, engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}},
		{"5x3", 11, engine.LearnSweep{Gen: core.GenSpec{Miners: 5, Coins: 3}, Runs: 60}},
		{"12x4", 13, engine.LearnSweep{Gen: core.GenSpec{Miners: 12, Coins: 4}, Runs: 40}},
		{"16x3 zipf powers", 17, engine.LearnSweep{Gen: core.GenSpec{Miners: 16, Coins: 3, PowerZipf: 1.1}, Runs: 30}},
		{"10x20 many coins", 19, engine.LearnSweep{Gen: core.GenSpec{Miners: 10, Coins: 20}, Runs: 15}},
		{"fixed restricted game", 23, engine.LearnSweep{Game: restricted, Runs: 50}},
		{"named schedulers", 29, engine.LearnSweep{Gen: core.GenSpec{Miners: 9, Coins: 3}, Schedulers: []string{"min-gain", "random", "round-robin"}, Runs: 50}},
	}
	m := engine.NewManager(engine.New(2))
	defer m.Close()
	var out []goldenJob
	for _, c := range cases {
		spec, err := json.Marshal(c.spec)
		check(err)
		job, err := m.SubmitJobOpts("", c.spec, c.seed, engine.SubmitOptions{})
		check(err)
		<-job.Done()
		if st := job.Status(); st.State != engine.StateDone {
			check(fmt.Errorf("%s: job %s: %s", c.name, st.State, st.Error))
		}
		docs, err := job.ResultRange(0, c.spec.Tasks())
		check(err)
		h := sha256.New()
		for i := range docs.Len() {
			h.Write(docs.Doc(i))
			h.Write([]byte{'\n'})
		}
		res, _ := job.Result()
		agg, err := json.Marshal(res)
		check(err)
		out = append(out, goldenJob{
			Name: c.name, Seed: c.seed, Spec: spec, Tasks: c.spec.Tasks(),
			DocsSHA: hex.EncodeToString(h.Sum(nil)), Aggregate: string(agg),
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	check(err)
	check(os.WriteFile("testdata/learn_sweep_golden.json", append(b, '\n'), 0o644))
	fmt.Printf("wrote testdata/learn_sweep_golden.json (%d jobs)\n", len(out))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen_learn_golden:", err)
		os.Exit(1)
	}
}
