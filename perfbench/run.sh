#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, Go cache and trace
# file stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

# Build output goes to stderr: the last line of stdout belongs to the result.
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) 1>&2
exec "${out}/perfbench" --trace-dir "${out}/traces" "$@"
