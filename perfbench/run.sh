#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload sweep-predict --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/gopath"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPATH="${out}/gopath"
export GOWORK=off

(cd "${here}" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
