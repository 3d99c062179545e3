#!/usr/bin/env bash
# Builds clarifyd, clarify-lb and the benchmark from the checkout's sources,
# then runs one workload:
#
#   bash clarifybench/run.sh --workload rm-replay --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root. The last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/clarifyd ]]; then
	echo "clarifybench: $root does not hold the clarify sources" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/work"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
go build -o "$out/bin/clarifyd" ./cmd/clarifyd
go build -o "$out/bin/clarify-lb" ./cmd/clarify-lb
(cd clarifybench && go build -o "$out/bin/clarifybench" .)
exec "$out/bin/clarifybench" -bin "$out/bin" -work "$out/work" "$@"
