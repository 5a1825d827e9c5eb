#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload flow-cpu-2d --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh                      # every workload, end-to-end metrics
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the build cache, go's temporary files, the children's
# temporary directories (TMPDIR) and go's telemetry counters, which live
# under XDG_CONFIG_HOME. GOWORK=off and GOTOOLCHAIN=local keep go from
# picking up a workspace file above the checkout or fetching a toolchain.
# Outside a full checkout the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
