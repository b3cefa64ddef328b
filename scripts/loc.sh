#!/usr/bin/env bash
# loc.sh — non-test Go lines of the main module, per package and in total.
#
# Counts every line (blank and comment lines included) of the tracked .go
# files that are not _test.go files. bench/ is its own module and testdata/
# holds fixtures, so both are left out. The last line is the total:
#
#   ./scripts/loc.sh            # "<lines> <package dir>" rows, then "<lines> total"
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z '*.go' ':!:*_test.go' ':!:bench/**' ':!:**/testdata/**' |
    xargs -0 wc -l |
    awk '$2 != "total" {
            dir = $2
            sub(/\/[^\/]*$/, "", dir)
            if (dir == $2) dir = "."
            lines[dir] += $1
            total += $1
        }
        END {
            for (d in lines) printf "%6d %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%6d total\n", total
        }'
