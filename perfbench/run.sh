#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every file the build and the run
# write stays under .bench_build/ there: the Go build cache, the binary and
# the scratch directories of the workloads. The last line of standard
# output is the result object; build output goes to standard error.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${out}/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "${root}/perfbench" && go build -trimpath -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" --workdir "${out}/tmp" "$@"
