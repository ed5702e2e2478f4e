#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it,
# forwarding every argument. Run from the root of the repository:
#
#   bash minosbench/run.sh --workload tcp-synch-ycsba --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain would otherwise write under $HOME (build
# cache, module cache, telemetry) is kept under .bench_build/ in the
# checkout, and the toolchain never downloads anything.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/home"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "${root}/minosbench" && go build -trimpath -o "${out}/minosbench" .) >&2

commit="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
source_sha="$(cd "${root}" && find internal minosbench go.mod -type f \( -name '*.go' -o -name go.mod \) 2>/dev/null \
	| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"

exec "${out}/minosbench" -commit "${commit}" -source "${source_sha}" -outdir "${out}" "$@"
