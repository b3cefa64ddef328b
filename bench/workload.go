package bench

import (
	"fmt"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// Workload names.
const (
	EqCold        = "eq-cold"
	PersistStream = "persist-stream"
)

// Workloads lists the workloads in report order. BENCHMARK.json says in
// one line why each exists, README.md at length.
func Workloads() []string { return []string{EqCold, PersistStream} }

// Fixed sizing.
const (
	clients  = 2 // closed-loop SDK clients (eq-cold: see clientsFor)
	workers  = 2 // engine workers
	setups   = 3 // set-ups per run; setup_s is their median
	warmOps  = 50
	fixture  = 300 // persist-stream: jobs in the store before set-up
	resubmit = 50  // persist-stream: timed jobs resubmitted after a restart
	// eqGames is the number of games (tasks) in an eq-cold job. Four keep
	// a 10×3 op near 10 ms, so a 15 s phase has over a thousand ops.
	eqGames = 4
	// bigEvery: eq-cold op i is an 11-miner job, three times the work of
	// the 10-miner rest, when i%bigEvery == bigEvery/2 (so every other
	// reference-checked op is large). One op in 20 gives the latency
	// distribution a tail of the program's own: p99 is the latency of the
	// large jobs, not of the host's short bursts of contention.
	bigEvery = 20
	// learnRuns is persist-stream's runs per scheduler: 1200 tasks a job.
	// At about 130 jobs/s, fixture, warm-up and a 15 s phase stay far
	// under the store's job-record cap (4096 plus a quarter) and the
	// engine's 4096-job retention, so no compaction or eviction runs
	// mid-phase.
	learnRuns  = 200
	checkEvery = 10 // every 10th op is checked against a reference
)

// clientsFor returns the number of closed-loop clients driving a
// workload. gocperf runs on one P, where a second client of the
// CPU-bound eq-cold only time-shares the CPU with the first: it adds no
// throughput and makes latency bimodal (about one or two job times, with a
// p50 that jumps between the modes from run to run).
func clientsFor(workload string) int {
	if workload == EqCold {
		return 1
	}
	return clients
}

// sizes holds the input sizes of one run; quick runs shrink them.
type sizes struct {
	setups, warm, fixture, resubmit int
}

func runSizes(quick bool) sizes {
	if quick {
		return sizes{setups: 1, warm: 4, fixture: 12, resubmit: 4}
	}
	return sizes{setups: setups, warm: warmOps, fixture: fixture, resubmit: resubmit}
}

// inputs generates every envelope of one run from its seed. Each op index
// maps to one envelope through its own forked stream, so which client runs
// an op never changes what it submits.
type inputs struct {
	workload string
	warm     *rng.Rand // warm-up envelopes
	ops      *rng.Rand // timed and traced ops
	fix      *rng.Rand // persist-stream fixture
}

func newInputs(workload string, seed uint64) (*inputs, error) {
	switch workload {
	case EqCold, PersistStream:
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return &inputs{
		workload: workload,
		warm:     rng.NewStream(seed, 1),
		ops:      rng.NewStream(seed, 2),
		fix:      rng.NewStream(seed, 3),
	}, nil
}

// op is one generated operation.
type op struct {
	env engine.JobEnvelope
}

// warmup returns the i-th warm-up op.
func (in *inputs) warmup(i int) (op, error) {
	return in.fresh(i, in.warm.Fork(uint64(i)).Uint64())
}

// fixtureOp returns the i-th persist-stream fixture job.
func (in *inputs) fixtureOp(i int) (op, error) {
	return in.fresh(i, in.fix.Fork(uint64(i)).Uint64())
}

// op returns the i-th timed or traced op.
func (in *inputs) op(i int) (op, error) {
	return in.fresh(i, in.ops.Fork(uint64(i)).Uint64())
}

// fresh returns a unique-seed job of the workload's own shape for op
// index i.
func (in *inputs) fresh(i int, seed uint64) (op, error) {
	var spec engine.Spec = engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: learnRuns}
	if in.workload == EqCold {
		miners := 10
		if i%bigEvery == bigEvery/2 {
			miners = 11
		}
		spec = engine.EquilibriumSweep{Gen: core.GenSpec{Miners: miners, Coins: 3}, Games: eqGames}
	}
	raw, err := engine.CanonicalSpecJSON(spec)
	if err != nil {
		return op{}, err
	}
	return op{env: engine.JobEnvelope{Kind: spec.Kind(), Seed: seed, Spec: raw}}, nil
}

// shapeKey identifies an envelope's job shape: its kind and spec, without
// the seed.
func shapeKey(env engine.JobEnvelope) string { return env.Kind + "|" + string(env.Spec) }

// envKey identifies an envelope for memoising replays.
func envKey(env engine.JobEnvelope) string {
	return fmt.Sprintf("%s|%d|%s", env.Kind, env.Seed, env.Spec)
}
