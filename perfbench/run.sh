#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Build outputs and the Go build cache
# stay under .bench_build/ in that checkout, so nothing is written
# elsewhere. Outside a checkout (no go.mod beside perfbench/) it exits
# non-zero without building or printing a result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "${root}/go.mod" ]; then
	echo "perfbench: ${root} is not the root of the bohrium checkout (no go.mod)" >&2
	exit 2
fi

out="${root}/.bench_build"
mkdir -p "${out}"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOPATH="${out}/gopath"

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
