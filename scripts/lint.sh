#!/usr/bin/env bash
# lint.sh — the static gate CI runs before the test step.
#
# Four checks, strictest first:
#
#   gofmt      — every tracked .go file formatted (gofmt -l must be empty).
#   goclint    — the in-tree static suite (cmd/goclint): the determinism
#                rules (nodeterm, maporder, rngfork, errdrop) plus the
#                concurrency-safety rules (lockguard, blockinglock,
#                lockorder, ctxleak) over the whole module. Findings fail
#                the build; suppressions need a //goclint:allow directive
#                with a rationale. Stale directives that no longer suppress
#                anything are reported as warnings (-unused-allows) but do
#                not gate. See DESIGN.md.
#   staticcheck / govulncheck — pinned via `go run tool@version` so nothing
#                is installed into the image. These need module downloads,
#                which hosts without network cannot do: a *download* failure
#                skips the check with a notice, but once the tool runs, its
#                findings gate.
#
# Offline, run `GOPROXY=off ./scripts/lint.sh`: module lookups are then
# refused locally, so the run never reaches for the network, and both
# pinned tools skip at once.
set -uo pipefail
cd "$(dirname "$0")/.."

STATICCHECK_VERSION="${STATICCHECK_VERSION:-honnef.co/go/tools/cmd/staticcheck@2025.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-golang.org/x/vuln/cmd/govulncheck@v1.1.4}"

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l $(git ls-files '*.go' 2>/dev/null || find . -name '*.go' -not -path './.git/*'))
if [[ -n "$unformatted" ]]; then
    echo "gofmt: files need formatting:"
    echo "$unformatted"
    fail=1
else
    echo "ok"
fi

echo "== goclint (determinism + concurrency suite) =="
if go run ./cmd/goclint -unused-allows ./...; then
    echo "ok"
else
    fail=1
fi

# run_pinned_tool NAME MODULE@VERSION ARGS... — run an external analyzer
# pinned by version. Distinguishes "could not fetch the tool" (skip: offline
# or registry outage, not a code problem) from "the tool ran and found
# something" (gate).
run_pinned_tool() {
    local name="$1" mod="$2"
    shift 2
    echo "== $name ($mod) =="
    local out
    if out=$(go run "$mod" "$@" 2>&1); then
        echo "ok"
        return 0
    fi
    if echo "$out" | grep -qiE 'dial tcp|no such host|connection refused|i/o timeout|unrecognized import path|proxy.*404|cannot find module|missing go.sum entry|tls handshake|module lookup disabled by GOPROXY=off'; then
        echo "skip: $name unavailable offline (module download failed)"
        return 0
    fi
    echo "$out"
    return 1
}

run_pinned_tool staticcheck "$STATICCHECK_VERSION" ./... || fail=1
run_pinned_tool govulncheck "$GOVULNCHECK_VERSION" ./... || fail=1

if [[ "$fail" -ne 0 ]]; then
    echo "lint: FAIL"
    exit 1
fi
echo "lint: all checks passed"
