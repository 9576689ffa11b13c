#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources
# and runs it from the checkout root:
#
#   bash e2ebench/run.sh --workload fig7_cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, temp files, capture
# stores, span files) stays under .bench_build/ in the checkout. Build
# output goes to stderr, so the last stdout line is the result JSON.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
# HOME and XDG_CONFIG_HOME keep the go command's config and telemetry
# files in the checkout too.
(cd "$root/e2ebench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" -root "$root" "$@"
