#!/usr/bin/env bash
# run.sh — repeated gocperf runs and their summary, or a bound check of two
# summaries. Run from anywhere inside a checkout.
#
#   bench/run.sh [-n RUNS] [-seconds S] [-seed BASE] [-out DIR] [WORKLOAD...]
#
#     Runs each workload (default: both) RUNS times untraced (default 5)
#     and then once traced, one fresh process per run, workloads interleaved
#     so slow drift of the machine spreads over all of them. Untraced runs
#     use seeds BASE+1..BASE+RUNS (default BASE 1000), the traced run
#     BASE+RUNS+1. Each run's report and output land in DIR/runs, and the
#     median and quartiles of every metric × workload in DIR/summary.json
#     (default DIR: .bench_build/runs-BASE). End-to-end statistics come from
#     the untraced runs, per-layer numbers from the traced run. Exits 1 if
#     any run failed, after writing the summary of the runs that reported.
#
#   bench/run.sh -compare BASE.json CHANGE.json
#
#     Applies the BENCHMARK.json bounds to two summaries. For each
#     end-to-end metric × workload of BASE it prints ok, regression,
#     unresolved (BASE's own spread is wider than the bound), or missing
#     (CHANGE has no number for it). Exits 1 on a regression or a missing
#     number.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=.bench_build/gocperf

if [[ "${1:-}" == "-compare" ]]; then
	if [[ $# -ne 3 ]]; then
		echo "usage: bench/run.sh -compare BASE.json CHANGE.json" >&2
		exit 2
	fi
	bash bench/gocperf.sh -list >/dev/null # builds the binary
	exec "$bin" -compare "$2" "$3"
fi

runs=5 seconds=15 base=1000 out=""
while [[ $# -gt 0 ]]; do
	case "$1" in
	-n) runs=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-seed) base=$2; shift 2 ;;
	-out) out=$2; shift 2 ;;
	-*) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(eq-cold persist-stream)
fi
out=${out:-.bench_build/runs-$base}
mkdir -p "$out/runs"

failed=0
one() { # workload seed trace
	local tag="$out/runs/$1-$2"
	echo "== $1 seed $2 trace $3" >&2
	if ! bash bench/gocperf.sh --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
		-report "$tag.json" >"$tag.log"; then
		echo "run.sh: $1 seed $2 failed; see $tag.log" >&2
		failed=1
	fi
}
for ((r = 1; r <= runs + 1; r++)); do
	for w in "${workloads[@]}"; do
		one "$w" $((base + r)) $((r > runs ? 1 : 0))
	done
done
shopt -s nullglob
reports=("$out"/runs/*.json)
if [[ ${#reports[@]} -gt 0 ]]; then
	"$bin" -summarize "$out/summary.json" "${reports[@]}"
	echo "wrote $out/summary.json" >&2
fi
if [[ $failed -ne 0 ]]; then
	echo "run.sh: at least one run failed; its workload is incomplete in the summary" >&2
	exit 1
fi
