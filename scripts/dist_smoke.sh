#!/usr/bin/env bash
# Distributed-execution smoke test: a gocserve coordinator with a starved
# local pool, two gocworker processes carrying the sweep over HTTP, one of
# them SIGKILL'd mid-job — and the result must still be byte-identical to a
# plain single-machine run. Exercises the whole lease protocol end to end:
# join (fingerprint), lease, streamed reports, deadline expiry of the killed
# worker's range, and requeue. CI runs this; also handy locally:
# ./scripts/dist_smoke.sh
set -euo pipefail

addr=127.0.0.1:8374
base="http://$addr"
bindir=$(mktemp -d)
out=$(mktemp -d)
pids=()
cleanup() { for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done; }
trap cleanup EXIT

go build -race -o "$bindir/gocserve" ./cmd/gocserve
go build -race -o "$bindir/gocworker" ./cmd/gocworker

# The binaries are race-instrumented; halt_on_error turns any detected
# race into an immediate crash, so the smoke fails instead of the report
# being lost when the process is killed at the end.
export GORACE="halt_on_error=1"

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "$base/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "gocserve never became healthy" >&2
  return 1
}

# ~600 tasks x ~13ms: long enough that the workers carry real load and the
# mid-job kill lands while leases are out.
job='{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":11,"Coins":3},"games":600}}'

submit() { # prints the handle POST /v2/jobs returns for $job
  curl -sf -X POST "$base/v2/jobs" -d "$job" | sed -n 's/.*"handle": "\(h-[0-9]*\)".*/\1/p' | head -1
}

wait_done() { # $1 = handle
  local state=""
  for _ in $(seq 1 1200); do
    state=$(curl -sf "$base/v2/jobs/$1" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
    [ "$state" = done ] && return 0
    [ "$state" = failed ] && { echo "job failed" >&2; return 1; }
    sleep 0.1
  done
  echo "job never finished (state=$state)" >&2
  return 1
}

# --- Pass 1: single machine, no fleet — the reference bytes. ---
"$bindir/gocserve" -addr "$addr" &
pids+=($!)
wait_healthy
handle=$(submit)
[ -n "$handle" ] || { echo "submission returned no handle" >&2; exit 1; }
wait_done "$handle"
curl -sf "$base/v2/jobs/$handle/result" >"$out/reference.json"
kill "${pids[0]}" 2>/dev/null || true
wait "${pids[0]}" 2>/dev/null || true
pids=()

# --- Pass 2: starved coordinator + two remote workers, one killed. ---
"$bindir/gocserve" -addr "$addr" -workers 1 -lease-ttl 2s -lease-tasks 32 &
pids+=($!)
wait_healthy
"$bindir/gocworker" -coordinator "$base" -name victim 2>"$out/victim.log" &
victim=$!
pids+=($victim)
"$bindir/gocworker" -coordinator "$base" -name survivor 2>"$out/survivor.log" &
pids+=($!)

handle=$(submit)
[ -n "$handle" ] || { echo "submission returned no handle" >&2; exit 1; }

# Wait until the fleet holds leases, then SIGKILL one worker mid-sweep: its
# in-flight range must be requeued after the lease TTL, nothing else lost.
granted=0
for _ in $(seq 1 200); do
  # "leases_granted" appears in both the engine and the dist sections of
  # /healthz; either counts — take the first.
  granted=$(curl -sf "$base/healthz" | sed -n 's/.*"leases_granted": \([0-9]*\).*/\1/p' | head -1)
  [ "${granted:-0}" -ge 2 ] && break
  sleep 0.1
done
[ "${granted:-0}" -ge 1 ] || { echo "fleet never took a lease" >&2; exit 1; }
kill -9 "$victim"
echo "killed worker 'victim' with leases_granted=$granted"

wait_done "$handle"
curl -sf "$base/v2/jobs/$handle/result" >"$out/distributed.json"

# The acceptance: byte-identical results, single-machine vs distributed
# fleet with a mid-job SIGKILL.
cmp "$out/reference.json" "$out/distributed.json"

# And the fleet must actually have computed part of it.
curl -sf "$base/healthz" >"$out/healthz.json"
remote=$(sed -n 's/.*"remote_completed": \([0-9]*\).*/\1/p' "$out/healthz.json" | head -1)
[ "${remote:-0}" -ge 1 ] || { echo "no remote task completions in $(cat "$out/healthz.json")" >&2; exit 1; }

echo "dist smoke OK: byte-identical result with $remote remote tasks and a SIGKILL'd worker"
