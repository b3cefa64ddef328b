#!/usr/bin/env bash
# Restart-recovery smoke test for gocserve persistence: start the server
# with -data, compute a result, kill the process, restart on the same
# directory, and require the pre-restart result to be served byte-identical
# through the same (persisted) handle, and the resubmission to be answered
# from cache. CI runs this; it is also handy locally:
# ./scripts/restart_smoke.sh
set -euo pipefail

addr=127.0.0.1:8373
base="http://$addr"
bin=$(mktemp -d)/gocserve
data=$(mktemp -d)
out=$(mktemp -d)
pid=""
cleanup() { [ -n "$pid" ] && kill "$pid" 2>/dev/null || true; }
trap cleanup EXIT

go build -race -o "$bin" ./cmd/gocserve

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

"$bin" -addr "$addr" -data "$data" &
pid=$!
wait_healthy

job='{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":4,"Coins":2},"games":20}}'
curl -sf -X POST "$base/v2/jobs" -d "$job" >"$out/handle.json"
handle=$(sed -n 's/.*"handle": "\(h-[0-9]*\)".*/\1/p' "$out/handle.json" | head -1)
job_id=$(sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' "$out/handle.json" | head -1)
[ -n "$handle" ] && [ -n "$job_id" ] || { echo "no handle/job id in $(cat "$out/handle.json")" >&2; exit 1; }

state=""
for _ in $(seq 1 200); do
  state=$(curl -sf "$base/v2/jobs/$handle" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
  [ "$state" = done ] && break
  sleep 0.1
done
[ "$state" = done ] || { echo "job never finished (state=$state)" >&2; exit 1; }
curl -sf "$base/v2/jobs/$handle/result" >"$out/before.json"

kill -TERM "$pid"
wait "$pid" || true
pid=""

"$bin" -addr "$addr" -data "$data" &
pid=$!
wait_healthy

# The pre-restart result is served byte-identical after the restart, through
# the handle minted before it. Poll: in the (rare) case the terminal record
# had not landed before SIGTERM, the job is resubmitted and recomputes —
# determinism makes the bytes identical either way, the result is just
# briefly a 409 while it reruns.
ok=""
for _ in $(seq 1 200); do
  if curl -sf "$base/v2/jobs/$handle/result" >"$out/after.json"; then
    ok=1
    break
  fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "result never became servable after restart" >&2; exit 1; }
cmp "$out/before.json" "$out/after.json"
# …and an identical resubmission is answered from cache, not recomputed.
curl -sf -X POST "$base/v2/jobs" -d "$job" | grep -q '"cached": true'

echo "restart smoke OK: $job_id survived a restart byte-identically"
